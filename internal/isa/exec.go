package isa

import "fmt"

// Exec is what a data instruction computes, written once, with ALU and Divide
// as its arithmetic; the instruction's Footprint says which registers it
// reads and writes and where it loads and stores. The functional emulator
// runs Exec on its architectural registers and memory. The machine runs it at
// fetch-decode, at execute-write-back and at memory access, each time on a
// scratch register file filled from what that stage knows, and keeps the
// results its stage rules let it produce there.
//
// Exec reads the instruction's register sources from regs and writes its
// register results into regs. loaded is the word at the instruction's load
// address (the Footprint's Load; ignored when it has none). Exec returns the
// word the memory operand holds afterwards: the value to write at the store
// address when the Footprint has a Store, and loaded itself otherwise. A
// control instruction (Op.IsControl) is not a data instruction and returns an
// error, as does a failing divide.
//
// Exec trusts the operand form: the forms the assembler refuses (a push or
// pop of memory, a pop into rsp, a leaq without a memory source and a
// register destination, an immediate where a result goes) have no defined
// result.
func Exec(in *Instruction, regs *[NumRegs]uint64, loaded uint64) (stored uint64, err error) {
	switch in.Op {
	case NOP:
	case MOV:
		return in.Dst.put(regs, in.Src.value(regs, loaded), loaded), nil
	case LEA:
		ref := in.Src.ref()
		regs[in.Dst.Reg] = ref.Addr(regs)
	case ADD, SUB, AND, OR, XOR, IMUL, SHL, SHR, SAR, NEG, NOT, INC, DEC, CMP, TEST:
		r, fl, writesFlags := ALU(in.Op, in.Dst.value(regs, loaded), in.Src.value(regs, loaded))
		if writesFlags {
			regs[Flags] = uint64(fl)
		}
		if !in.Op.DiscardsResult() {
			return in.Dst.put(regs, r, loaded), nil
		}
	case CQTO:
		regs[RDX] = uint64(int64(regs[RAX]) >> 63)
	case DIV, IDIV:
		quot, rem, err := Divide(in.Op, regs[RAX], regs[RDX], in.Dst.value(regs, loaded))
		if err != nil {
			return loaded, err
		}
		regs[RAX], regs[RDX] = quot, rem
	case SETcc:
		var v uint64
		if in.Cond.Eval(FlagsVal(regs[Flags])) {
			v = 1
		}
		return in.Dst.put(regs, v, loaded), nil
	case PUSH:
		v := in.Src.value(regs, loaded)
		regs[RSP] -= 8
		return v, nil
	case POP:
		regs[RSP] += 8
		return in.Dst.put(regs, loaded, loaded), nil
	default:
		return loaded, fmt.Errorf("isa: %s is not a data instruction", in.Op)
	}
	return loaded, nil
}

// value returns the operand as a source: a register's contents, an
// immediate, or the loaded word.
func (o *Operand) value(regs *[NumRegs]uint64, loaded uint64) uint64 {
	switch o.Kind {
	case KindReg:
		return regs[o.Reg]
	case KindImm:
		return uint64(o.Imm)
	case KindMem:
		return loaded
	}
	return 0
}

// put delivers v to the operand as a destination and returns the word to
// store: v for a memory operand; loaded, unchanged, after writing a register.
func (o *Operand) put(regs *[NumRegs]uint64, v, loaded uint64) uint64 {
	switch o.Kind {
	case KindReg:
		regs[o.Reg] = v
	case KindMem:
		return v
	}
	return loaded
}
