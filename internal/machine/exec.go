package machine

import (
	"fmt"

	"repro/internal/isa"
)

// regCell returns d's result cell for register r, claiming one from the cell
// arena on first use. An instruction writes at most maxWr registers
// (guaranteed by isa.Instruction.RegWrites); the array bound traps any
// violation.
func (m *Machine) regCell(d *DynInst, r isa.Reg) *cell {
	for i := 0; i < int(d.nwr); i++ {
		if d.wrRegs[i] == r {
			return d.wr[i]
		}
	}
	i := int(d.nwr)
	d.wrRegs[i] = r
	d.wr[i] = m.cells.alloc()
	d.nwr++
	return d.wr[i]
}

// regWritten reports whether d has already produced a result for r.
func (d *DynInst) regWritten(r isa.Reg) bool {
	for i := 0; i < int(d.nwr); i++ {
		if d.wrRegs[i] == r {
			return d.wr[i].at != 0
		}
	}
	return false
}

// setReg records one register result of d becoming available this cycle.
func (m *Machine) setReg(d *DynInst, r isa.Reg, v uint64) {
	c := m.regCell(d, r)
	if c.at != 0 {
		// Keep the earliest availability (e.g. pop's rsp update computed at
		// fetch must not be delayed by the load half).
		c.v = v
		return
	}
	m.fill(c, v, m.cycle)
}

// srcValue returns the resolved value of register r among d's sources.
func (d *DynInst) srcValue(r isa.Reg) uint64 {
	for i := range d.srcs[:d.nsrcs] {
		if d.srcs[i].reg == r {
			return d.srcs[i].prod.v
		}
	}
	return 0
}

// regWrites collects the register results of one instruction evaluation: at
// most two writes (a destination plus Flags, or rax plus rdx for divides).
// A fixed-size out-parameter, not a map — the previous map allocation per
// evaluated instruction was one of the simulator's top allocation sites.
type regWrites struct {
	n   int
	reg [2]isa.Reg
	val [2]uint64
}

func (w *regWrites) set(r isa.Reg, v uint64) {
	w.reg[w.n] = r
	w.val[w.n] = v
	w.n++
}

// evalRegCompute computes the register results of a non-memory instruction
// given a register reader, appending them to out. Used both by the fetch
// stage's in-order partial execution and by the execute-write-back stage.
// Controls and memory ops produce no writes here.
func evalRegCompute(in *isa.Instruction, rd func(isa.Reg) uint64, out *regWrites) error {
	src := func() uint64 {
		switch in.Src.Kind {
		case isa.KindReg:
			return rd(in.Src.Reg)
		case isa.KindImm:
			return uint64(in.Src.Imm)
		}
		return 0
	}
	switch in.Op {
	case isa.NOP, isa.JMP, isa.Jcc, isa.FORK, isa.ENDFORK, isa.HLT:
		return nil
	case isa.MOV:
		out.set(in.Dst.Reg, src())
	case isa.LEA:
		a := uint64(in.Src.Imm)
		if in.Src.Base != isa.NoReg {
			a += rd(in.Src.Base)
		}
		if in.Src.Index != isa.NoReg {
			a += rd(in.Src.Index) * uint64(in.Src.Scale)
		}
		out.set(in.Dst.Reg, a)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.SHL, isa.SHR, isa.SAR,
		isa.NEG, isa.NOT, isa.INC, isa.DEC, isa.CMP, isa.TEST:
		r, fl, writesFlags := isa.ALU(in.Op, rd(in.Dst.Reg), src())
		if !in.Op.DiscardsResult() {
			out.set(in.Dst.Reg, r)
		}
		if writesFlags {
			out.set(isa.Flags, uint64(fl))
		}
	case isa.CQTO:
		out.set(isa.RDX, uint64(int64(rd(isa.RAX))>>63))
	case isa.SETcc:
		v := uint64(0)
		if in.Cond.Eval(isa.FlagsVal(rd(isa.Flags))) {
			v = 1
		}
		out.set(in.Dst.Reg, v)
	case isa.DIV, isa.IDIV:
		quot, rem, err := isa.Divide(in.Op, rd(isa.RAX), rd(isa.RDX), rd(in.Dst.Reg))
		if err != nil {
			return err
		}
		out.set(isa.RAX, quot)
		out.set(isa.RDX, rem)
	default:
		return fmt.Errorf("unexpected opcode %s in register compute", in.Op)
	}
	return nil
}

// effectiveAddr computes the data address of memory instruction d, whose
// footprint is fp, from its resolved register sources: its load's operand,
// else its store's. A push's address is its store's, -8(%rsp) — the machine
// pushes registers and immediates, never a loaded word — and a pop's its
// load's, 0(%rsp).
func (d *DynInst) effectiveAddr(fp *isa.Footprint) uint64 {
	o := &fp.Store
	if fp.HasLoad && d.In.Op != isa.PUSH {
		o = &fp.Load
	}
	a := uint64(o.Imm)
	if o.Base != isa.NoReg {
		a += d.srcValue(o.Base)
	}
	if o.Index != isa.NoReg {
		a += d.srcValue(o.Index) * uint64(o.Scale)
	}
	return a
}

// evalMemAccess computes the memory-access-stage results of a load/store d:
// the register results for loads and/or the stored value for stores.
// memVal is the loaded value (producers already checked ready by the caller);
// it is ignored by pure stores.
func (m *Machine) evalMemAccess(d *DynInst, memVal uint64) error {
	in := d.In
	rd := d.srcValue
	switch in.Op {
	case isa.MOV:
		if in.Src.Kind == isa.KindMem {
			m.setReg(d, in.Dst.Reg, memVal)
		} else {
			// Store: data from reg or imm.
			if in.Src.Kind == isa.KindReg {
				d.mem.v = rd(in.Src.Reg)
			} else {
				d.mem.v = uint64(in.Src.Imm)
			}
		}
	case isa.PUSH:
		if in.Src.Kind == isa.KindReg {
			d.mem.v = rd(in.Src.Reg)
		} else {
			d.mem.v = uint64(in.Src.Imm)
		}
	case isa.POP:
		m.setReg(d, in.Dst.Reg, memVal)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.CMP, isa.TEST:
		// Load form (dst OP= [mem]) or read-modify-write form ([mem] OP= src):
		// the loaded word is the source operand of the first and the
		// destination operand of the second.
		load := in.Src.Kind == isa.KindMem
		var a, b uint64
		switch {
		case load:
			a, b = rd(in.Dst.Reg), memVal
		case in.Src.Kind == isa.KindReg:
			a, b = memVal, rd(in.Src.Reg)
		default:
			a, b = memVal, uint64(in.Src.Imm)
		}
		r, fl, writesFlags := isa.ALU(in.Op, a, b)
		switch {
		case in.Op.DiscardsResult():
			// cmpq/testq with a memory operand: flags only.
		case load:
			m.setReg(d, in.Dst.Reg, r)
		default:
			d.mem.v = r
		}
		if writesFlags {
			m.setReg(d, isa.Flags, uint64(fl))
		}
	default:
		return fmt.Errorf("machine: unsupported memory op %s", in)
	}
	return nil
}
