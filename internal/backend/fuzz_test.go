package backend_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/progs"
)

// vectorData is the data segment progs' builders give the sum and max
// listings, written with .quad: the fuzz target refuses .space (see below).
const vectorData = "\n.data\nt: .quad 3, 1, 4, 1, 5\ntlen: .quad 5\n"

// FuzzExecAgrees is the ISA's differential contract on any assembly text, not
// only on the register forms the mini-C code generator emits: a program that
// assembles, has no call or ret and halts on the emulator within a few
// thousand steps, in a run the machine models (see runEmulator), leaves the
// same rax and data segment on the dense and the idle-skip machines. Plain `go test` replays the
// seeds (every probe form and the progs fork listings);
// `go test -fuzz=FuzzExecAgrees` explores.
func FuzzExecAgrees(f *testing.F) {
	for _, form := range probeForms {
		f.Add(formListing(form))
	}
	f.Add("_start: movq $t, %rdi\nmovq $5, %rsi\nfork sum\nhlt\n" + progs.SumForkBody + vectorData)
	f.Add("_start: movq $t, %rdi\nmovq $5, %rsi\nfork vmax\nhlt\n" + progs.MaxForkBody + vectorData)
	f.Add("_start: movq $6, %rsi\nfork fib\nhlt\n" + progs.FibForkBody)
	f.Fuzz(func(t *testing.T, src string) {
		// A mutated .space can reserve up to 2 GB of data segment.
		if strings.Contains(src, ".space") {
			return
		}
		prog, err := asm.Assemble(src)
		if err != nil {
			return
		}
		for i := range prog.Text {
			if op := prog.Text[i].Op; op == isa.CALL || op == isa.RET {
				return
			}
		}
		want, modelled, err := runEmulator(prog, 4096)
		if err != nil || !modelled {
			return
		}
		// The call-level shortcut assumes the fork convention's stack
		// discipline — a forked section never writes its creator's frame —
		// which arbitrary text breaks (testdata/fuzz/FuzzExecAgrees).
		cfg := machine.DefaultConfig(2)
		cfg.MaxCycles, cfg.Shortcut = 1<<17, false
		if err := machinesAgree(prog, want, nil, cfg); err != nil {
			t.Fatalf("%v\nprogram:\n%s", err, src)
		}
	})
}
