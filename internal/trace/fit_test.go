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
// listings — has a footprint row that is exactly what the isa methods say,
// and a record built from that row holds its register sets in order and in
// full. The table's builder panics on a set that outgrows the row, so this
// test is where an ISA or code-generator change that outgrows the record
// fails, not a traced run.
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
	// a pop's rsp and destination. Then the memory-destination forms of one
	// footprint rule: an ALU op is read-modify-write unless it discards its
	// result, a divide loads its divisor, and setcc only stores.
	mem := isa.MemOp(0, isa.RBX, isa.RCX, 8)
	programs = append(programs, &isa.Program{Text: []isa.Instruction{
		{Op: isa.IDIV, Dst: mem},
		{Op: isa.MOV, Src: mem, Dst: isa.MemOp(8, isa.RSI, isa.RDI, 1)},
		{Op: isa.POP, Dst: isa.RegOp(isa.RBX)},
		{Op: isa.SHL, Src: isa.ImmOp(3), Dst: mem},
		{Op: isa.SAR, Src: isa.RegOp(isa.RAX), Dst: mem},
		{Op: isa.IMUL, Src: isa.RegOp(isa.RAX), Dst: mem},
		{Op: isa.NEG, Dst: mem},
		{Op: isa.INC, Dst: mem},
		{Op: isa.CMP, Src: isa.ImmOp(1), Dst: mem},
		{Op: isa.DIV, Dst: mem},
		{Op: isa.SETcc, Cond: isa.CondNE, Dst: mem},
	}})
	insts := 0
	for _, prog := range programs {
		rows := prog.Footprints()
		if len(rows) != len(prog.Text) {
			t.Fatalf("%d rows for %d instructions", len(rows), len(prog.Text))
		}
		for i := range prog.Text {
			in, f := &prog.Text[i], &rows[i]
			r := trace.Record{Regs: f.Regs}
			reads, writes := in.RegReads(nil), in.RegWrites(nil)
			if !slices.Equal(r.RegReads(), reads) {
				t.Fatalf("%s: record reads %v, instruction reads %v", in, r.RegReads(), reads)
			}
			if !slices.Equal(r.RegWrites(), writes) {
				t.Fatalf("%s: record writes %v, instruction writes %v", in, r.RegWrites(), writes)
			}
			if got, want := f.Uniq.Reads(), firstOccurrences(reads); !slices.Equal(got, want) {
				t.Fatalf("%s: row's distinct reads %v, want %v", in, got, want)
			}
			if got, want := f.Uniq.Writes(), firstOccurrences(writes); !slices.Equal(got, want) {
				t.Fatalf("%s: row's distinct writes %v, want %v", in, got, want)
			}
			if got, want := f.AddrRegs, in.AddrRegs(); got != want {
				t.Fatalf("%s: row's address registers %b, want %b", in, got, want)
			}
			if got, want := f.Class, in.Classify(); got != want {
				t.Fatalf("%s: row's class %d, want %d", in, got, want)
			}
			load, hasLoad := in.MemRead()
			if f.HasLoad != hasLoad || hasLoad && !sameAddress(f.Load, load) {
				t.Fatalf("%s: row loads %v %+v, instruction loads %v %+v", in, f.HasLoad, f.Load, hasLoad, load)
			}
			store, hasStore := in.MemWrite()
			if f.HasStore != hasStore || hasStore && !sameAddress(f.Store, store) {
				t.Fatalf("%s: row stores %v %+v, instruction stores %v %+v", in, f.HasStore, f.Store, hasStore, store)
			}
			insts++
		}
	}
	if insts == 0 {
		t.Fatal("no instruction checked")
	}
}

// firstOccurrences returns rs without repeats, in first-occurrence order.
func firstOccurrences(rs []isa.Reg) []isa.Reg {
	var out []isa.Reg
	for _, r := range rs {
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

func sameAddress(m isa.MemRef, o isa.Operand) bool {
	return m.Imm == o.Imm && m.Base == o.Base && m.Index == o.Index && m.Scale == o.Scale
}
