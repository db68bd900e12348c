// Package isa defines the x86-flavoured instruction set used throughout the
// reproduction: registers, opcodes, operands and addressing modes, and the
// Instruction type shared by the assembler, the functional emulator, the
// trace-based ILP analyser and the many-core machine simulator.
//
// The ISA is the ~25-instruction subset the paper's own examples use
// (Figs. 2 and 5), written in gas (AT&T) syntax with the destination as the
// rightmost operand, extended with the paper's two new control instructions:
//
//	fork    target   // start a new section at the next instruction,
//	                 // continue this flow at target (no return address)
//	endfork          // terminate the current section (no return)
//
// Code addresses are instruction indices (one instruction per code address);
// data addresses are byte addresses in a separate data/stack space. All data
// operations are 64-bit ("q" suffix).
//
// What the instructions mean is here too, once: Exec is what a data
// instruction computes, and an instruction's Footprint what it reads, writes,
// loads and stores.
package isa

import "fmt"

// Reg identifies an architectural register. The numbering follows the SysV
// x86-64 convention so that disassembly matches the paper's listings.
type Reg uint8

// Architectural registers. Flags is modelled as an explicit register so that
// the dependence analyses can track cmp→jcc producer/consumer pairs exactly
// like data dependences.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	Flags // condition codes, written by cmp/test/ALU ops, read by jcc/setcc
	NumRegs
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "flags",
}

// String returns the gas-style register name without the % sigil.
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// ParseReg maps a register name (without %) to its Reg value.
func ParseReg(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return 0, false
}

// RegMask is a bitset over the architectural registers, the allocation-free
// representation of small register sets (dependence analyses, the
// simulator's address-source classification and read/write deduplication).
type RegMask uint32

// The register file must fit in a RegMask (compile-time check: the shift
// overflows the untyped constant if NumRegs outgrows 32).
const _ RegMask = 1 << (NumRegs - 1)

// Has reports whether r is in the set.
func (m RegMask) Has(r Reg) bool { return m&(1<<r) != 0 }

// Add inserts r into the set.
func (m *RegMask) Add(r Reg) { *m |= 1 << r }

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. Operand order follows gas: src first, dst last.
const (
	NOP Op = iota

	// Data movement.
	MOV // movq src, dst (reg/imm/mem -> reg, reg/imm -> mem)
	LEA // leaq mem, reg (address computation only)

	// Integer ALU, two-operand: dst = dst OP src. Set Flags.
	ADD
	SUB
	AND
	OR
	XOR
	IMUL // two-operand signed multiply (no flags dependence downstream used)
	SHL  // shift left by imm or %rcx (low 6 bits)
	SHR  // logical shift right
	SAR  // arithmetic shift right

	// One-operand ALU. Set Flags.
	NEG
	NOT // does not set flags on real x86; we follow x86 (no flags write)
	INC
	DEC

	// Division: unsigned divq src divides rdx:rax by src; quotient -> rax,
	// remainder -> rdx. cqto sign-extends rax into rdx for idivq.
	DIV
	IDIV
	CQTO

	// Comparison: set Flags only.
	CMP  // cmpq src, dst : flags from dst - src
	TEST // testq src, dst : flags from dst & src

	// Conditional set: setCC dst (dst = 0/1 from Flags).
	SETcc

	// Stack.
	PUSH // pushq src : rsp -= 8; [rsp] = src
	POP  // popq dst  : dst = [rsp]; rsp += 8

	// Control flow.
	JMP  // unconditional, direct target
	Jcc  // conditional, direct target
	CALL // push next code address (as a data value on the stack); jump
	RET  // pop code address; jump

	// The paper's additions.
	FORK    // start new section at next instruction; continue at target
	ENDFORK // terminate the current section

	HLT // stop the machine (end of program)

	NumOps
)

var opNames = [NumOps]string{
	"nop", "movq", "leaq",
	"addq", "subq", "andq", "orq", "xorq", "imulq", "shlq", "shrq", "sarq",
	"negq", "notq", "incq", "decq",
	"divq", "idivq", "cqto",
	"cmpq", "testq", "set",
	"pushq", "popq",
	"jmp", "j", "call", "ret",
	"fork", "endfork",
	"hlt",
}

// IsControl reports whether the opcode redirects or terminates a flow: the
// one list of control opcodes.
func (o Op) IsControl() bool {
	switch o {
	case JMP, Jcc, CALL, RET, FORK, ENDFORK, HLT:
		return true
	}
	return false
}

// String returns the gas mnemonic (without condition suffix for Jcc/SETcc).
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Cond enumerates condition codes for Jcc and SETcc.
type Cond uint8

// Condition codes, matching x86 semantics over the Flags register.
const (
	CondE  Cond = iota // equal: ZF
	CondNE             // not equal: !ZF
	CondA              // unsigned above: !CF && !ZF
	CondAE             // unsigned above or equal: !CF
	CondB              // unsigned below: CF
	CondBE             // unsigned below or equal: CF || ZF
	CondG              // signed greater: !ZF && SF==OF
	CondGE             // signed greater or equal: SF==OF
	CondL              // signed less: SF!=OF
	CondLE             // signed less or equal: ZF || SF!=OF
	CondS              // sign: SF
	CondNS             // not sign: !SF
	NumConds
)

var condNames = [NumConds]string{"e", "ne", "a", "ae", "b", "be", "g", "ge", "l", "le", "s", "ns"}

// String returns the x86 condition suffix ("e", "ne", "a", ...).
func (c Cond) String() string {
	if c < NumConds {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// ParseCond maps a condition suffix to its Cond value.
func ParseCond(s string) (Cond, bool) {
	for i, n := range condNames {
		if n == s {
			return Cond(i), true
		}
	}
	return 0, false
}

// FlagsVal packs the four condition flags into a register-sized value so that
// Flags flows through the same 64-bit datapaths as every other register.
type FlagsVal uint64

// Flag bit positions within a FlagsVal.
const (
	FlagZ FlagsVal = 1 << iota
	FlagS
	FlagC
	FlagO
)

// Eval evaluates condition c against packed flags f.
func (c Cond) Eval(f FlagsVal) bool {
	zf := f&FlagZ != 0
	sf := f&FlagS != 0
	cf := f&FlagC != 0
	of := f&FlagO != 0
	switch c {
	case CondE:
		return zf
	case CondNE:
		return !zf
	case CondA:
		return !cf && !zf
	case CondAE:
		return !cf
	case CondB:
		return cf
	case CondBE:
		return cf || zf
	case CondG:
		return !zf && sf == of
	case CondGE:
		return sf == of
	case CondL:
		return sf != of
	case CondLE:
		return zf || sf != of
	case CondS:
		return sf
	case CondNS:
		return !sf
	}
	return false
}

// OperandKind discriminates Operand variants.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg              // %rax
	KindImm              // $42 (also resolved label addresses for jumps)
	KindMem              // disp(base,index,scale)
)

// Operand is one instruction operand. Mem operands use the full x86 form
// disp(base,index,scale); Base/Index of NumRegs mean "absent".
type Operand struct {
	Kind  OperandKind
	Reg   Reg    // KindReg
	Imm   int64  // KindImm: value; KindMem: displacement
	Base  Reg    // KindMem
	Index Reg    // KindMem
	Scale uint8  // KindMem: 1, 2, 4 or 8
	Sym   string // optional symbol name the Imm/displacement came from
}

// NoReg marks an absent base or index register in a Mem operand.
const NoReg = NumRegs

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a memory operand disp(base,index,scale).
func MemOp(disp int64, base, index Reg, scale uint8) Operand {
	if scale == 0 {
		scale = 1
	}
	return Operand{Kind: KindMem, Imm: disp, Base: base, Index: index, Scale: scale}
}

// MemBase returns the common disp(base) memory operand.
func MemBase(disp int64, base Reg) Operand { return MemOp(disp, base, NoReg, 1) }

// String prints the operand in gas syntax, as the machine reads it. An
// assembled operand that names a symbol holds the symbol's address plus the
// text's offset in Imm, so it prints that value in hex, with the symbol it
// was resolved from in angle brackets: `movq t+8, %rax` with t at 0x10008
// prints `movq 0x10010<t>, %rax`. asm.Listing prints it as the text wrote it
// (Relative).
func (o Operand) String() string {
	switch {
	case o.Sym != "":
		return o.format(fmt.Sprintf("%#x<%s>", o.Imm, o.Sym))
	case o.Kind == KindImm || o.Imm != 0:
		return o.format(fmt.Sprint(o.Imm))
	}
	return o.format("")
}

// Relative prints a symbol operand as assembly text names it, relative to
// the symbol, whose value is at: `t+8` for Imm 0x10010 and at 0x10008.
func (o Operand) Relative(at int64) string {
	disp := o.Sym
	if off := o.Imm - at; off != 0 {
		disp += fmt.Sprintf("%+d", off)
	}
	return o.format(disp)
}

// format prints the operand with its displacement or immediate already
// written as disp.
func (o Operand) format(disp string) string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return "%" + o.Reg.String()
	case KindImm:
		return "$" + disp
	case KindMem:
		if o.Base == NoReg && o.Index == NoReg {
			return disp
		}
		s := disp + "("
		if o.Base != NoReg {
			s += "%" + o.Base.String()
		}
		if o.Index != NoReg {
			s += ",%" + o.Index.String()
			s += fmt.Sprintf(",%d", o.Scale)
		}
		return s + ")"
	}
	return "?"
}

// Instruction is one decoded instruction. For two-operand forms Src is the
// gas first operand and Dst the second (destination). Control instructions
// put their target code address in Target (an instruction index).
type Instruction struct {
	Op     Op
	Cond   Cond // for Jcc / SETcc
	Src    Operand
	Dst    Operand
	Target int64  // code address for JMP/Jcc/CALL/FORK
	Label  string // symbolic target, what String prints for a jump, call or fork
}

// String prints the instruction in gas syntax, its operands as the machine
// reads them (Operand.String).
func (in Instruction) String() string { return in.Format(Operand.String) }

// Format prints the instruction in gas syntax with each operand printed by
// operand.
func (in Instruction) Format(operand func(Operand) string) string {
	switch in.Op {
	case NOP, CQTO, RET, ENDFORK, HLT:
		return in.Op.String()
	case JMP, CALL, FORK:
		if in.Label != "" {
			return fmt.Sprintf("%s %s", in.Op, in.Label)
		}
		return fmt.Sprintf("%s %d", in.Op, in.Target)
	case Jcc:
		if in.Label != "" {
			return fmt.Sprintf("j%s %s", in.Cond, in.Label)
		}
		return fmt.Sprintf("j%s %d", in.Cond, in.Target)
	case SETcc:
		return fmt.Sprintf("set%s %s", in.Cond, operand(in.Dst))
	case NEG, NOT, INC, DEC, DIV, IDIV, POP:
		return fmt.Sprintf("%s %s", in.Op, operand(in.Dst))
	case PUSH:
		return fmt.Sprintf("%s %s", in.Op, operand(in.Src))
	default:
		return fmt.Sprintf("%s %s, %s", in.Op, operand(in.Src), operand(in.Dst))
	}
}

// Class groups opcodes by their pipeline treatment in the paper's core.
type Class uint8

// Instruction classes. The fetch-decode stage computes ClassSimple and
// ClassControl instructions in-stage when their sources are full; loads,
// stores and complex integer ops (mul/div) execute later, out of order.
const (
	ClassSimple  Class = iota // ALU computable in the fetch-decode stage
	ClassComplex              // imul/div: executed in the EW stage only
	ClassLoad                 // reads data memory
	ClassStore                // writes data memory
	ClassControl              // jmp/jcc/call/ret/fork/endfork/hlt
)

// Classify returns the pipeline class of the instruction: a control; else a
// store if it writes memory (read-modify-write forms included), a load if it
// only reads memory; else complex for imul and the divides, and simple.
func (in *Instruction) Classify() Class {
	if in.Op.IsControl() {
		return ClassControl
	}
	if _, ok := in.MemWrite(); ok {
		return ClassStore
	}
	if _, ok := in.MemRead(); ok {
		return ClassLoad
	}
	switch in.Op {
	case IMUL, DIV, IDIV:
		return ClassComplex
	}
	return ClassSimple
}

// WritesFlags reports whether the instruction writes the Flags register.
func (in *Instruction) WritesFlags() bool {
	switch in.Op {
	case ADD, SUB, AND, OR, XOR, NEG, INC, DEC, CMP, TEST, SHL, SHR, SAR:
		return true
	}
	return false
}

// RegReads appends to buf the registers read by the instruction (including
// address-component registers of memory operands and Flags) and returns it.
func (in *Instruction) RegReads(buf []Reg) []Reg {
	addMem := func(o Operand) {
		if o.Base != NoReg && o.Base < NumRegs {
			buf = append(buf, o.Base)
		}
		if o.Index != NoReg && o.Index < NumRegs {
			buf = append(buf, o.Index)
		}
	}
	switch in.Op {
	case NOP, JMP, HLT, ENDFORK:
		return buf
	case Jcc, SETcc:
		buf = append(buf, Flags)
		if in.Op == SETcc && in.Dst.Kind == KindMem {
			addMem(in.Dst)
		}
		return buf
	case CALL, FORK:
		if in.Op == CALL {
			buf = append(buf, RSP)
		}
		return buf
	case RET:
		buf = append(buf, RSP)
		return buf
	case PUSH:
		buf = append(buf, RSP)
		if in.Src.Kind == KindReg {
			buf = append(buf, in.Src.Reg)
		} else if in.Src.Kind == KindMem {
			addMem(in.Src)
		}
		return buf
	case POP:
		buf = append(buf, RSP)
		if in.Dst.Kind == KindMem {
			addMem(in.Dst)
		}
		return buf
	case CQTO:
		buf = append(buf, RAX)
		return buf
	case DIV, IDIV:
		buf = append(buf, RAX, RDX)
		if in.Dst.Kind == KindReg {
			buf = append(buf, in.Dst.Reg)
		} else if in.Dst.Kind == KindMem {
			addMem(in.Dst)
		}
		return buf
	case MOV, LEA:
		if in.Src.Kind == KindReg {
			buf = append(buf, in.Src.Reg)
		} else if in.Src.Kind == KindMem {
			addMem(in.Src)
		}
		if in.Dst.Kind == KindMem {
			addMem(in.Dst)
		}
		return buf
	case NEG, NOT, INC, DEC:
		if in.Dst.Kind == KindReg {
			buf = append(buf, in.Dst.Reg)
		} else if in.Dst.Kind == KindMem {
			addMem(in.Dst)
		}
		return buf
	}
	// Two-operand ALU and CMP/TEST: read src and dst.
	if in.Src.Kind == KindReg {
		buf = append(buf, in.Src.Reg)
	} else if in.Src.Kind == KindMem {
		addMem(in.Src)
	}
	if in.Dst.Kind == KindReg {
		buf = append(buf, in.Dst.Reg)
	} else if in.Dst.Kind == KindMem {
		addMem(in.Dst)
	}
	return buf
}

// RegWrites appends to buf the registers written by the instruction
// (including Flags where applicable) and returns it.
func (in *Instruction) RegWrites(buf []Reg) []Reg {
	switch in.Op {
	case NOP, JMP, Jcc, HLT, FORK, ENDFORK:
		return buf
	case CMP, TEST:
		return append(buf, Flags)
	case CALL, RET:
		return append(buf, RSP)
	case PUSH:
		return append(buf, RSP)
	case POP:
		buf = append(buf, RSP)
		if in.Dst.Kind == KindReg {
			buf = append(buf, in.Dst.Reg)
		}
		return buf
	case CQTO:
		return append(buf, RDX)
	case DIV, IDIV:
		return append(buf, RAX, RDX)
	case SETcc:
		if in.Dst.Kind == KindReg {
			buf = append(buf, in.Dst.Reg)
		}
		return buf
	}
	if in.Dst.Kind == KindReg {
		buf = append(buf, in.Dst.Reg)
	}
	if in.WritesFlags() {
		buf = append(buf, Flags)
	}
	return buf
}

// AddrRegs returns the set of registers that feed only the address
// computation of a memory instruction. The paper's pipeline splits a memory
// op's sources in two: address-forming registers gate the execute-write-back
// stage (which computes the access address), while the remaining data
// sources are needed only at memory access. Non-memory instructions return
// the empty set.
func (in *Instruction) AddrRegs() RegMask {
	var m RegMask
	switch in.Op {
	case PUSH, POP:
		m.Add(RSP)
		return m
	}
	add := func(o Operand) {
		if o.Base != NoReg && o.Base < NumRegs {
			m.Add(o.Base)
		}
		if o.Index != NoReg && o.Index < NumRegs {
			m.Add(o.Index)
		}
	}
	if mo, ok := in.MemRead(); ok {
		add(mo)
	}
	if mo, ok := in.MemWrite(); ok {
		add(mo)
	}
	return m
}

// MemRead reports whether the instruction loads from data memory, and which
// operand holds the address: pop's and ret's (%rsp), a memory source (but
// leaq's, which is only an address), or a memory destination the opcode
// takes as an input (Op.readsDst).
func (in *Instruction) MemRead() (Operand, bool) {
	switch in.Op {
	case POP, RET:
		return MemBase(0, RSP), true
	case LEA:
		return Operand{}, false
	}
	if in.Src.Kind == KindMem {
		return in.Src, true
	}
	if in.Dst.Kind == KindMem && in.Op.readsDst() {
		return in.Dst, true
	}
	return Operand{}, false
}

// MemWrite reports whether the instruction stores to data memory, and which
// operand holds the address: push's and call's -8(%rsp), the post-decrement
// stack slot, or a memory destination the opcode writes (Op.writesDst).
func (in *Instruction) MemWrite() (Operand, bool) {
	switch in.Op {
	case PUSH, CALL:
		return MemBase(-8, RSP), true
	}
	if in.Dst.Kind == KindMem && in.Op.writesDst() {
		return in.Dst, true
	}
	return Operand{}, false
}

// readsDst reports whether op takes its destination operand as an input: the
// ALU ops, which combine it with the source (CMP and TEST only read it), and
// the divides, whose one operand is the divisor.
func (o Op) readsDst() bool {
	switch o {
	case ADD, SUB, AND, OR, XOR, IMUL, SHL, SHR, SAR, NEG, NOT, INC, DEC, CMP, TEST, DIV, IDIV:
		return true
	}
	return false
}

// writesDst reports whether op writes its destination operand.
func (o Op) writesDst() bool {
	switch o {
	case MOV, LEA, ADD, SUB, AND, OR, XOR, IMUL, SHL, SHR, SAR, NEG, NOT, INC, DEC, SETcc, POP:
		return true
	}
	return false
}
