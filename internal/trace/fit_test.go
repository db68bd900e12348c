package trace_test

import (
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
	"repro/internal/trace"
)

// TestRecordHoldsEveryInstruction: every static instruction the repository
// can run — all kernels in both calling conventions and the hand-written
// listings — fits a record's inline register sets, in order and in full.
// SetRegs panics on one that does not, so this test is where an ISA or
// code-generator change that outgrows the record fails, not a traced run.
func TestRecordHoldsEveryInstruction(t *testing.T) {
	var programs []*isa.Program
	for _, k := range pbbs.Kernels() {
		for _, mode := range []minic.Mode{minic.ModeCall, minic.ModeFork} {
			prog, err := k.Build(k.MinN, mode)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			programs = append(programs, prog)
		}
	}
	for _, build := range []func() (*isa.Program, error){
		func() (*isa.Program, error) { return progs.BuildSumCall(progs.Vector(5)) },
		func() (*isa.Program, error) { return progs.BuildSumFork(progs.Vector(5)) },
		func() (*isa.Program, error) { return progs.BuildMaxFork(progs.Vector(5)) },
		func() (*isa.Program, error) { return progs.BuildFibCall(5) },
		func() (*isa.Program, error) { return progs.BuildFibFork(5) },
	} {
		prog, err := build()
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, prog)
	}
	// The widest sets the operand forms allow, whether or not a compiler
	// emits them: rax, rdx and a base+index divisor; two base+index operands;
	// a pop's rsp and destination.
	mem := isa.MemOp(0, isa.RBX, isa.RCX, 8)
	programs = append(programs, &isa.Program{Text: []isa.Instruction{
		{Op: isa.IDIV, Dst: mem},
		{Op: isa.MOV, Src: mem, Dst: isa.MemOp(8, isa.RSI, isa.RDI, 1)},
		{Op: isa.POP, Dst: isa.RegOp(isa.RBX)},
	}})
	insts := 0
	for _, prog := range programs {
		for i := range prog.Text {
			in := &prog.Text[i]
			var r trace.Record
			r.SetRegs(in)
			if want := in.RegReads(nil); !slices.Equal(r.RegReads(), want) {
				t.Fatalf("%s: record reads %v, instruction reads %v", in, r.RegReads(), want)
			}
			if want := in.RegWrites(nil); !slices.Equal(r.RegWrites(), want) {
				t.Fatalf("%s: record writes %v, instruction writes %v", in, r.RegWrites(), want)
			}
			insts++
		}
	}
	if insts == 0 {
		t.Fatal("no instruction checked")
	}
}
