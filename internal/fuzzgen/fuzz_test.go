package fuzzgen

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/machine"
)

// poisonMachine flips the machine's unexported test hook, Machine.poison: the
// next run overwrites every instruction it retires with absurd values and
// never reuses it, so a read of a retired instruction changes the run instead
// of finding what a recycled object still happens to hold. The hook has no
// exported setter on purpose — nothing but a test may turn it on — so this
// package's tests reach it by name; a rename fails here, loudly.
func poisonMachine(m *machine.Machine) {
	f := reflect.ValueOf(m).Elem().FieldByName("poison")
	*(*bool)(unsafe.Pointer(f.UnsafeAddr())) = true
}

// testOracle is the oracle every test and the fuzz target of this package
// run: the full one, with its poisoned legs.
func testOracle() *Oracle { return &Oracle{poison: poisonMachine} }

// TestPoisonedLegRuns: the oracle's poisoned legs really are. On a handful
// of seeds the hook is called three times per program — the cold run, the
// second warm-Reset run and the dense pooled run — on machines whose poison
// switch it does flip (poisonMachine panics on a renamed field), and each
// call finds the switch off: Reset and the pool's rebind cleared what the
// previous poisoned run set.
func TestPoisonedLegRuns(t *testing.T) {
	poisonOn := func(m *machine.Machine) bool {
		return reflect.ValueOf(m).Elem().FieldByName("poison").Bool()
	}
	var poisonedMachines []*machine.Machine
	o := &Oracle{poison: func(m *machine.Machine) {
		if poisonOn(m) {
			t.Error("the poison switch outlived a Reset or rebind")
		}
		poisonMachine(m)
		if !poisonOn(m) {
			t.Error("poisonMachine did not set the switch")
		}
		poisonedMachines = append(poisonedMachines, m)
	}}
	for seed := uint64(0); seed < 4; seed++ {
		p := Generate(seed)
		if f := o.CheckProgram(p); f != nil {
			t.Fatalf("seed %d: %v\n%s", seed, f, p.Source)
		}
	}
	if len(poisonedMachines) != 12 {
		t.Fatalf("the poison hook ran %d times on 4 programs, want 12", len(poisonedMachines))
	}
	// Per program: the cold and second warm runs share a machine, and the
	// pooled run is on the parked one.
	for i := 0; i < len(poisonedMachines); i += 3 {
		cold, warm, pooled := poisonedMachines[i], poisonedMachines[i+1], poisonedMachines[i+2]
		if cold != warm || pooled == cold {
			t.Errorf("program %d: poisoned legs on machines %p, %p, %p", i/3, cold, warm, pooled)
		}
	}
}

// The native fuzz targets. Plain `go test` replays the committed corpus
// under testdata/fuzz/ plus the f.Add seeds below — so every CI run drives
// the corpus through every substrate, the warm-Reset path and the pool;
// `go test -fuzz=FuzzTripleEquivalence` explores new seeds from there.

// fuzzSeeds are the baseline corpus replayed on every plain `go test` run,
// in addition to the files under testdata/fuzz/.
var fuzzSeeds = []uint64{0, 1, 2, 3, 7, 42, 1337, 0xdeadbeef, 1 << 33, ^uint64(0)}

// FuzzTripleEquivalence drives a generated program through the full oracle:
// AST interpreter vs emulator vs idle-skip vs dense machine, then the reuse
// legs — a fresh machine, two warm Resets of it and three pooled runs through
// a rebound parked machine, poisoned where Check poisons them — bit-identical
// down to stage timestamps. A failure is shrunk under the same oracle and
// reported with both programs; the corpus file Go writes for the failing seed
// is the reproducer.
func FuzzTripleEquivalence(f *testing.F) { fuzzOracle(f) }

// FuzzResetReproduces is FuzzTripleEquivalence over the corpus under its own
// name in testdata/fuzz/, whose seeds once ran the reuse legs alone; they now
// run them at the end of the full oracle, after its other legs.
func FuzzResetReproduces(f *testing.F) { fuzzOracle(f) }

// fuzzOracle is the body of both fuzz targets: fuzzSeeds and the target's
// corpus, each through the full oracle, a failure shrunk.
func fuzzOracle(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	o := testOracle()
	f.Fuzz(func(t *testing.T, seed uint64) {
		if fail := o.CheckProgram(Generate(seed)); fail != nil {
			min := o.Shrink(fail)
			t.Fatalf("%v\nprogram (%d bytes):\n%s\nminimized (%d bytes): %s\n%s",
				fail, len(fail.Source), fail.Source, len(min.Source), min.Detail, min.Source)
		}
	})
}
