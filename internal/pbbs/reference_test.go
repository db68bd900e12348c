package pbbs

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// referencesFile pins the reference checksum of every annotated-Go kernel at
// a table of sizes and seeds.
var referencesFile = filepath.Join("testdata", "references.txt")

// goKernels returns the kernels whose reference gofront derives.
func goKernels(t testing.TB) []*Kernel {
	var ks []*Kernel
	for _, k := range Kernels() {
		if k.Lang == LangGo {
			ks = append(ks, k)
		}
	}
	if len(ks) != 4 {
		t.Fatalf("%d annotated-Go kernels, want 4", len(ks))
	}
	return ks
}

// referenceLines computes one "id/name n=N seed=S checksum" line per
// annotated-Go kernel, size MinN, 16, 64, 128 and 512, and seed 1 to 3.
func referenceLines(t *testing.T) []string {
	var lines []string
	for _, k := range goKernels(t) {
		for _, n := range []int{k.MinN, 16, 64, 128, 512} {
			for seed := uint64(1); seed <= 3; seed++ {
				want, err := k.Ref(n, k.Gen(n, seed))
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", k.Name, n, seed, err)
				}
				lines = append(lines, fmt.Sprintf("%d/%s n=%d seed=%d %d", k.ID, k.Name, n, seed, want))
			}
		}
	}
	return lines
}

// TestReferenceChecksumsDoNotMove: the reference checksums are what every
// simulated run of an annotated-Go kernel is checked against, so no change to
// how gofront evaluates the lowered program may move one. The table was
// recorded by the tree-walking interpreter the closure compiler replaced;
// `go test ./internal/pbbs -run TestReferenceChecksumsDoNotMove -update`
// rewrites it, and only a change meant to move the kernels' results does
// that.
func TestReferenceChecksumsDoNotMove(t *testing.T) {
	got := referenceLines(t)
	if *updateGolden {
		if err := os.WriteFile(referencesFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(referencesFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d references, %s pins %d", len(got), referencesFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("moved: %s, pinned %s", got[i], want[i])
		}
	}
}

// TestRefAllocations is the reference's memory contract. A lowering is
// compiled once, and a Ref takes a finished run's globals and frame stack
// from the program's pool: a run copies the inputs into storage it already
// has, so a Ref allocates nothing once one has run. Only a pool the garbage
// collector emptied costs one run's storage again (two allocations: the
// globals with the first frame stack, and the run). The tree walk took 6 168
// bytes in 3 allocations for quickSort at n=512 and 17 096 in 16 for the
// four annotated-Go kernels at n=64; the budgets leave room for one refill
// in the twenty Refs measured, and a closure made per node or per call
// fails them at once.
func TestRefAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include the detector's own")
	}
	measure := func(refs func()) (bytes, allocs uint64) {
		refs() // compiles the lowerings
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			refs()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	refOf := func(k *Kernel, n int) func() {
		in := k.Gen(n, 1)
		return func() {
			if _, err := k.Ref(n, in); err != nil {
				t.Fatal(err)
			}
		}
	}
	qs, err := Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	var all []func()
	for _, k := range goKernels(t) {
		all = append(all, refOf(k, 64))
	}
	for _, c := range []struct {
		what                      string
		refs                      func()
		budgetBytes, budgetAllocs uint64
	}{
		{"Ref(quickSort, 512)", refOf(qs, 512), 1_024, 1},
		{"the four annotated-Go kernels at n=64", func() {
			for _, ref := range all {
				ref()
			}
		}, 2_048, 1},
	} {
		bytes, allocs := measure(c.refs)
		t.Logf("%s: %d bytes in %d allocations", c.what, bytes, allocs)
		if bytes > c.budgetBytes || allocs > c.budgetAllocs {
			t.Errorf("%s allocated %d bytes in %d allocations, budget %d and %d",
				c.what, bytes, allocs, c.budgetBytes, c.budgetAllocs)
		}
	}
}

// BenchmarkRef times the reference of quickSort at n=512, what the
// paper-scale machine point checks against, and of the four annotated-Go
// kernels at n=64, what a cold sweep's grid checks against.
func BenchmarkRef(b *testing.B) {
	qs, err := Find("quicksort")
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, ks []*Kernel, n int) {
		ins := make([]Inputs, len(ks))
		for i, k := range ks {
			ins[i] = k.Gen(n, 1)
		}
		b.ReportAllocs()
		for b.Loop() {
			for i, k := range ks {
				if _, err := k.Ref(n, ins[i]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("quickSort/n=512", func(b *testing.B) { run(b, []*Kernel{qs}, 512) })
	b.Run("go-kernels/n=64", func(b *testing.B) { run(b, goKernels(b), 64) })
}
