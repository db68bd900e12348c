package pbbs

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/progs"
)

// programsFile pins every program the repository compiles or assembles, by
// the SHA-256 of its Encode bytes: what the sweep cache key hashes.
var programsFile = filepath.Join("testdata", "programs.sha256")

// programDigests compiles every kernel in both modes at n = 16, 64, 128 and
// 512 and builds the progs listings, and returns one "name digest" line
// each.
func programDigests(t *testing.T) []string {
	var lines []string
	add := func(name string, p *isa.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, fmt.Sprintf("%s %x", name, sha256.Sum256(p.Encode())))
	}
	for _, k := range Kernels() {
		for _, mode := range []minic.Mode{minic.ModeCall, minic.ModeFork} {
			for _, n := range []int{16, 64, 128, 512} {
				p, err := k.Build(n, mode)
				add(fmt.Sprintf("%d/%s/%s/n=%d", k.ID, k.Name, mode, n), p, err)
			}
		}
	}
	for _, n := range []int{16, 64} {
		p, err := progs.BuildSumCall(progs.Vector(n))
		add(fmt.Sprintf("progs/sum/call/n=%d", n), p, err)
		p, err = progs.BuildSumFork(progs.Vector(n))
		add(fmt.Sprintf("progs/sum/fork/n=%d", n), p, err)
		p, err = progs.BuildMaxFork(progs.Vector(n))
		add(fmt.Sprintf("progs/max/fork/n=%d", n), p, err)
	}
	p, err := progs.BuildFibCall(10)
	add("progs/fib/call/n=10", p, err)
	p, err = progs.BuildFibFork(10)
	add("progs/fib/fork/n=10", p, err)
	return lines
}

// TestCompiledProgramsDoNotMove: no change to the compiler or the assembler
// moves a program by a byte unless it is meant to — a moved program is a
// moved cache key, and numbers recorded for it no longer describe it. The
// table was recorded by the code generator that printed assembly text for
// the assembler to parse; `go test ./internal/pbbs -run
// TestCompiledProgramsDoNotMove -update` rewrites it, and only a change meant
// to move programs does that.
func TestCompiledProgramsDoNotMove(t *testing.T) {
	got := programDigests(t)
	if *updateGolden {
		if err := os.WriteFile(programsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(programsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d programs, %s pins %d", len(got), programsFile, len(want))
	}
	moved := 0
	for i := range got {
		if got[i] != want[i] {
			if moved++; moved <= 5 {
				t.Errorf("moved: %s, pinned %s", got[i], want[i])
			}
		}
	}
	if moved > 0 {
		t.Errorf("%d of %d programs moved", moved, len(got))
	}
}

// TestCompileAllocations is the compile's memory contract: the eleven
// kernels at n=128 in call mode, what a Fig. 7 repetition compiles, within
// 800 000 bytes and 5 000 allocations. The code generator emits into the
// assembler's Builder, whose scratch and the lexer's token slice are reused
// from one compile to the next, so what is left is the syntax tree and the
// programs themselves: 667 500 bytes in 4 165 allocations. Printing
// assembly text for the assembler to parse again, with the tokens in a
// slice grown by appending, took 1 438 000 bytes in 10 811 allocations.
func TestCompileAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race include the pools' dropped buffers")
	}
	const budgetBytes, budgetAllocs = 800_000, 5_000
	var srcs []string
	for _, k := range Kernels() {
		src, err := k.Source(k.ClampN(128))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	compile := func() {
		for _, src := range srcs {
			if _, err := minic.Compile(src, minic.ModeCall); err != nil {
				t.Fatal(err)
			}
		}
	}
	compile() // fills the pools
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("compiling the %d kernels: %d bytes in %d allocations", len(srcs), bytes, allocs)
	if bytes > budgetBytes || allocs > budgetAllocs {
		t.Errorf("compiling the %d kernels allocated %d bytes in %d allocations, budget %d and %d",
			len(srcs), bytes, allocs, budgetBytes, budgetAllocs)
	}
}
