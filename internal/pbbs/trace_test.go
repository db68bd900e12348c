package pbbs

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/minic"
)

// tracedQuickSort builds quickSort and its inputs once, for tests that run
// it traced on the emulator.
func tracedQuickSort(t *testing.T, n int, mode minic.Mode) (*isa.Program, Inputs) {
	t.Helper()
	k, err := Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := k.Build(n, mode)
	if err != nil {
		t.Fatal(err)
	}
	return prog, k.Gen(n, 1)
}

// TestTraceEncodeDigest pins Trace.Encode, byte for byte, to what the code
// before the flat record produced for quickSort n=16 seed 1 (4685 records):
// the record's shape in memory is free to change, the MCT1 bytes are not.
func TestTraceEncodeDigest(t *testing.T) {
	for _, tc := range []struct {
		mode minic.Mode
		want string
	}{
		{minic.ModeCall, "94ee3d38c811190b63ba3caf52a7644042e6b177b94b4b78b88a850b3e72ea77"},
		{minic.ModeFork, "f9580b4c5eae6c3630637a2d2da1b96fc427595852297dde36a0430f1ebc49b2"},
	} {
		prog, in := tracedQuickSort(t, 16, tc.mode)
		res, err := backend.NewEmulator().Run(prog, in, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(res.Trace.Encode())); got != tc.want {
			t.Errorf("%v mode: %d records encode to %s, want %s", tc.mode, res.Trace.Len(), got, tc.want)
		}
	}
}

// TestTracedRunDoesNotAllocatePerInstruction: a traced run allocates for the
// emulator's memory pages and for each doubling of the trace, and nothing
// per dynamic instruction.
func TestTracedRunDoesNotAllocatePerInstruction(t *testing.T) {
	prog, in := tracedQuickSort(t, 64, minic.ModeCall)
	run := func(traced bool) (allocs float64, insts int) {
		allocs = testing.AllocsPerRun(5, func() {
			res, err := backend.NewEmulator().Run(prog, in, traced)
			if err != nil {
				t.Fatal(err)
			}
			insts = int(res.Instructions)
		})
		return allocs, insts
	}
	plain, insts := run(false)
	traced, _ := run(true)
	// append grows by at least a quarter each time, so 4·log2(n) bounds the
	// growth steps with room to spare; the closure and the Trace are the +4.
	budget := float64(4*bits.Len(uint(insts)) + 4)
	if extra := traced - plain; extra > budget {
		t.Errorf("tracing %d instructions costs %.0f allocations over the untraced run's %.0f, budget %.0f",
			insts, extra, plain, budget)
	}
}
