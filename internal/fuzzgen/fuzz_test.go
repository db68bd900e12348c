package fuzzgen

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/minic"
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

// testOracle is the oracle every test and fuzz target of this package runs:
// the full one, with the poisoned leg the command-line campaign cannot have.
func testOracle() *Oracle { return &Oracle{poison: poisonMachine} }

// TestPoisonedLegRuns: the oracle's poisoned leg really is one. On a handful
// of seeds the hook is called once per program, on a machine whose poison
// switch it does flip (poisonMachine panics on a renamed field), and the
// switch lasts one run.
func TestPoisonedLegRuns(t *testing.T) {
	var poisonedMachines []*machine.Machine
	o := &Oracle{poison: func(m *machine.Machine) {
		poisonMachine(m)
		if !reflect.ValueOf(m).Elem().FieldByName("poison").Bool() {
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
	if len(poisonedMachines) != 4 {
		t.Fatalf("the poison hook ran %d times on 4 programs", len(poisonedMachines))
	}
	// The oracle's warm-Reset leg ran on the same machine, recycling as usual.
	for i, m := range poisonedMachines {
		if reflect.ValueOf(m).Elem().FieldByName("poison").Bool() {
			t.Errorf("machine %d is still poisoned after Reset", i)
		}
	}
}

// The native fuzz targets. Plain `go test` replays the committed corpus
// under testdata/fuzz/ plus the f.Add seeds below — so every CI run drives
// the corpus through every substrate and the warm-Reset path; `go test
// -fuzz=<target>` explores new seeds from there.

// fuzzSeeds are the baseline corpus replayed on every plain `go test` run,
// in addition to the files under testdata/fuzz/.
var fuzzSeeds = []uint64{0, 1, 2, 3, 7, 42, 1337, 0xdeadbeef, 1 << 33, ^uint64(0)}

// FuzzTripleEquivalence drives a generated program through the full oracle:
// AST interpreter vs emulator vs idle-skip vs dense machine, plus warm-Reset
// and pool re-runs, bit-identical down to stage timestamps.
func FuzzTripleEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	o := testOracle()
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := Generate(seed)
		if fail := o.CheckProgram(p); fail != nil {
			t.Fatalf("%v\nprogram:\n%s", fail, p.Source)
		}
	})
}

// FuzzResetReproduces hammers the warm-machine lifecycle specifically: one
// Machine re-run repeatedly through Reset, and through a Pool whose Get
// re-arms the other scheduler each time, must reproduce the cold run exactly.
// The middle Reset run and the dense pooled run poison what they retire.
func FuzzResetReproduces(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := Generate(seed)
		prog, err := minic.Compile(p.Source, minic.ModeFork)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		cfg := machine.DefaultConfig(p.Cores)
		m, err := machine.New(prog, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cold, err := runRows(m)
		if err != nil {
			t.Fatalf("seed %d: cold run: %v\n%s", seed, err, p.Source)
		}
		for i := 0; i < 3; i++ {
			m.Reset()
			if i == 1 {
				poisonMachine(m)
			}
			warm, err := runRows(m)
			if err != nil {
				t.Fatalf("seed %d: warm run %d: %v", seed, i, err)
			}
			if diff := diffResults(cold, warm); diff != "" {
				t.Fatalf("seed %d: warm-Reset run %d diverged: %s\n%s", seed, i, diff, p.Source)
			}
		}

		// Pool path: the parked machine last ran another program on another
		// core count, and every Get rebinds it — program, shape and
		// scheduler — so alternating schedulers through that one machine
		// must still match the cold run.
		pool, err := parkedPool(p.Cores)
		if err != nil {
			t.Fatalf("seed %d: park: %v", seed, err)
		}
		for _, dense := range []bool{false, true, false} {
			c := cfg
			c.Dense = dense
			pm, err := pool.Get("", prog, c)
			if err != nil {
				t.Fatalf("seed %d: pool get (dense=%v): %v", seed, dense, err)
			}
			if dense {
				poisonMachine(pm)
			}
			got, err := runRows(pm)
			if err != nil {
				t.Fatalf("seed %d: pooled run (dense=%v): %v", seed, dense, err)
			}
			pool.Put("", pm)
			if diff := diffResults(cold, got); diff != "" {
				t.Fatalf("seed %d: pooled run (dense=%v) diverged: %s\n%s", seed, dense, diff, p.Source)
			}
		}
		if s := pool.Stats(); s.Misses != 0 || s.Hits != 3 {
			t.Fatalf("seed %d: pool stats %+v, want 3 hits on the parked machine", seed, s)
		}
	})
}
