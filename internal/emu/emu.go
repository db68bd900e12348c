// Package emu implements the functional (sequential) emulator for the ISA.
//
// It serves three roles in the reproduction:
//
//  1. Reference semantics: every program — mini-C output, hand-written
//     listings, PBBS kernels — is validated here before any ILP analysis or
//     machine simulation.
//  2. Trace production: a hook receives the dynamic trace as it happens, one
//     record (register and memory read/write sets) per retired instruction.
//     The internal/ilp analysers that regenerate the paper's Fig. 7 step
//     inside that hook; a caller that wants records kept copies them there
//     (CPU.TraceHook).
//  3. Sequential execution of fork programs: fork/endfork are executed with
//     their *sequential-trace* semantics (the section total order of §2),
//     which makes the emulator the functional oracle for the many-core
//     machine simulator. A fork behaves as "continue into the callee now,
//     resume the continuation at endfork with the non-volatile registers
//     copied at the fork" — exactly the register-transfer the paper's
//     section-creation message performs.
package emu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// NonVolatile is the set of registers a fork copies to the created section
// (the paper's §4.1: "the stack pointer and the set of non volatile
// registers"; the paper's own example also copies rdi and rsi, so the
// reproduction includes them).
var NonVolatile = []isa.Reg{isa.RBX, isa.RBP, isa.RSP, isa.RSI, isa.RDI, isa.R12, isa.R13, isa.R14, isa.R15}

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, paged, byte-addressed 64-bit memory.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// Reset zeroes every mapped page, returning the memory to its empty state
// while keeping the pages allocated. A memory image that is rebuilt after
// Reset (program data, injected inputs, the same deterministic run) touches
// only pages mapped before, so a warmed machine re-runs without page
// allocations — part of machine.Reset's no-steady-state-allocation contract.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		clear(p[:])
	}
}

// ReadU64 reads the 8-byte little-endian word at addr. Unmapped bytes read
// as zero.
func (m *Memory) ReadU64(addr uint64) uint64 {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		var v uint64
		for i := uint64(0); i < 8; i++ {
			v |= uint64(p[off+i]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// WriteU64 writes the 8-byte little-endian word v at addr.
func (m *Memory) WriteU64(addr uint64, v uint64) {
	if off := addr & (pageSize - 1); off <= pageSize-8 {
		p := m.page(addr, true)
		for i := uint64(0); i < 8; i++ {
			p[off+i] = byte(v >> (8 * i))
		}
		return
	}
	for i := uint64(0); i < 8; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

// LoadByte reads one byte; unmapped bytes read as zero.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&(pageSize-1)] = b
}

// CopyIn writes buf at addr, a page at a time.
func (m *Memory) CopyIn(addr uint64, buf []byte) {
	for len(buf) > 0 {
		n := copy(m.page(addr, true)[addr&(pageSize-1):], buf)
		addr += uint64(n)
		buf = buf[n:]
	}
}

// Fault describes an emulation error with its dynamic context.
type Fault struct {
	IP   int64
	Seq  int64
	Msg  string
	Inst string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("emu: fault at ip=%d seq=%d (%s): %s", f.IP, f.Seq, f.Inst, f.Msg)
}

// forkFrame is the sequential-execution continuation saved by FORK.
type forkFrame struct {
	resumeIP int64
	saved    [16]uint64 // snapshot of the non-volatile registers
	level    int32
	isCall   bool // true when the frame models CALL/RET, false for FORK/ENDFORK
}

// CPU is the emulator state.
type CPU struct {
	Prog  *isa.Program
	Regs  [isa.NumRegs]uint64
	IP    int64
	Mem   *Memory
	Steps int64

	// TraceHook, when set, receives every retired instruction's record. The
	// record is the CPU's own and is overwritten by the next step: a hook
	// that keeps it copies it.
	TraceHook func(*trace.Record)

	// MaxSteps bounds the run; 0 means the default (256M).
	MaxSteps int64

	level     int32
	forkStack []forkFrame
	halted    bool
	rec       trace.Record
}

// New prepares a CPU to run prog from its entry point, with the data segment
// loaded and the stack pointer initialised.
func New(prog *isa.Program) *CPU {
	c := &CPU{Prog: prog, Mem: NewMemory()}
	c.Mem.CopyIn(isa.DataBase, prog.Data)
	c.Regs[isa.RSP] = isa.StackTop
	c.IP = prog.Entry
	return c
}

// Result returns the conventional program result (rax at halt).
func (c *CPU) Result() uint64 { return c.Regs[isa.RAX] }

// Run executes until HLT or the step bound. It returns the step count.
func (c *CPU) Run() (int64, error) {
	max := c.MaxSteps
	if max == 0 {
		max = 256 << 20
	}
	for !c.halted {
		if c.Steps >= max {
			return c.Steps, &Fault{IP: c.IP, Seq: c.Steps, Msg: fmt.Sprintf("step limit %d exceeded", max)}
		}
		if err := c.Step(); err != nil {
			return c.Steps, err
		}
	}
	return c.Steps, nil
}

func (c *CPU) fault(in *isa.Instruction, msg string) error {
	return &Fault{IP: c.IP, Seq: c.Steps, Msg: msg, Inst: in.String()}
}

// effAddr computes the effective address of a memory operand.
func (c *CPU) effAddr(o *isa.Operand) uint64 {
	a := uint64(o.Imm)
	if o.Base != isa.NoReg {
		a += c.Regs[o.Base]
	}
	if o.Index != isa.NoReg {
		a += c.Regs[o.Index] * uint64(o.Scale)
	}
	return a
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.halted {
		return nil
	}
	if c.IP < 0 || c.IP >= int64(len(c.Prog.Text)) {
		return &Fault{IP: c.IP, Seq: c.Steps, Msg: "instruction fetch out of text segment"}
	}
	in := &c.Prog.Text[c.IP]

	var rec *trace.Record
	if c.TraceHook != nil {
		rec = &c.rec
		*rec = trace.Record{Seq: c.Steps, IP: c.IP, Op: in.Op, CallLevel: c.level}
		rec.SetRegs(in)
		// Both addresses form from the registers as they stand before the
		// instruction executes: the stack operands of isa.MemRead/MemWrite
		// are (%rsp) for pop/ret and -8(%rsp) for push/call.
		if mo, ok := in.MemRead(); ok {
			rec.Load, rec.HasLoad = c.effAddr(&mo), true
		}
		if mo, ok := in.MemWrite(); ok {
			rec.Store, rec.HasStore = c.effAddr(&mo), true
		}
	}

	next := c.IP + 1
	taken := false

	readSrc := func(o *isa.Operand) uint64 {
		switch o.Kind {
		case isa.KindReg:
			return c.Regs[o.Reg]
		case isa.KindImm:
			return uint64(o.Imm)
		case isa.KindMem:
			return c.Mem.ReadU64(c.effAddr(o))
		}
		return 0
	}
	readDst := func(o *isa.Operand) uint64 {
		switch o.Kind {
		case isa.KindReg:
			return c.Regs[o.Reg]
		case isa.KindMem:
			return c.Mem.ReadU64(c.effAddr(o))
		}
		return 0
	}
	writeDst := func(o *isa.Operand, v uint64) {
		switch o.Kind {
		case isa.KindReg:
			c.Regs[o.Reg] = v
		case isa.KindMem:
			c.Mem.WriteU64(c.effAddr(o), v)
		}
	}

	switch in.Op {
	case isa.NOP:

	case isa.MOV:
		writeDst(&in.Dst, readSrc(&in.Src))

	case isa.LEA:
		if in.Src.Kind != isa.KindMem || in.Dst.Kind != isa.KindReg {
			return c.fault(in, "leaq needs mem source and reg destination")
		}
		c.Regs[in.Dst.Reg] = c.effAddr(&in.Src)

	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.SHL, isa.SHR, isa.SAR,
		isa.NEG, isa.NOT, isa.INC, isa.DEC, isa.CMP, isa.TEST:
		r, fl, writesFlags := isa.ALU(in.Op, readDst(&in.Dst), readSrc(&in.Src))
		if writesFlags {
			c.Regs[isa.Flags] = uint64(fl)
		}
		if !in.Op.DiscardsResult() {
			writeDst(&in.Dst, r)
		}

	case isa.CQTO:
		c.Regs[isa.RDX] = uint64(int64(c.Regs[isa.RAX]) >> 63)

	case isa.DIV, isa.IDIV:
		quot, rem, err := isa.Divide(in.Op, c.Regs[isa.RAX], c.Regs[isa.RDX], readDst(&in.Dst))
		if err != nil {
			return c.fault(in, err.Error())
		}
		c.Regs[isa.RAX], c.Regs[isa.RDX] = quot, rem

	case isa.SETcc:
		v := uint64(0)
		if in.Cond.Eval(isa.FlagsVal(c.Regs[isa.Flags])) {
			v = 1
		}
		writeDst(&in.Dst, v)

	case isa.PUSH:
		v := readSrc(&in.Src)
		c.Regs[isa.RSP] -= 8
		c.Mem.WriteU64(c.Regs[isa.RSP], v)
	case isa.POP:
		v := c.Mem.ReadU64(c.Regs[isa.RSP])
		c.Regs[isa.RSP] += 8
		writeDst(&in.Dst, v)

	case isa.JMP:
		next = in.Target
		taken = true
	case isa.Jcc:
		if in.Cond.Eval(isa.FlagsVal(c.Regs[isa.Flags])) {
			next = in.Target
			taken = true
		}
	case isa.CALL:
		c.Regs[isa.RSP] -= 8
		c.Mem.WriteU64(c.Regs[isa.RSP], uint64(c.IP+1))
		next = in.Target
		taken = true
		c.level++
	case isa.RET:
		ra := c.Mem.ReadU64(c.Regs[isa.RSP])
		c.Regs[isa.RSP] += 8
		next = int64(ra)
		taken = true
		if c.level > 0 {
			c.level--
		}

	case isa.FORK:
		var f forkFrame
		f.resumeIP = c.IP + 1
		f.level = c.level
		for _, r := range NonVolatile {
			f.saved[r] = c.Regs[r]
		}
		c.forkStack = append(c.forkStack, f)
		next = in.Target
		taken = true
		c.level++
	case isa.ENDFORK:
		if len(c.forkStack) == 0 {
			c.halted = true
			taken = true
			break
		}
		f := c.forkStack[len(c.forkStack)-1]
		c.forkStack = c.forkStack[:len(c.forkStack)-1]
		for _, r := range NonVolatile {
			c.Regs[r] = f.saved[r]
		}
		next = f.resumeIP
		c.level = f.level
		taken = true

	case isa.HLT:
		c.halted = true

	default:
		return c.fault(in, "unimplemented opcode")
	}

	if rec != nil {
		rec.Taken = taken
		c.TraceHook(rec)
	}
	c.Steps++
	if !c.halted {
		c.IP = next
	}
	return nil
}

// RunProgram runs prog to completion without tracing and returns the final CPU.
func RunProgram(prog *isa.Program) (*CPU, error) {
	c := New(prog)
	_, err := c.Run()
	return c, err
}
