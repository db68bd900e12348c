// Package emu implements the functional (sequential) emulator for the ISA.
//
// It serves three roles in the reproduction:
//
//  1. Reference semantics: every program — mini-C output, hand-written
//     listings, PBBS kernels — is validated here before any ILP analysis or
//     machine simulation.
//  2. Trace production: a hook receives the dynamic trace as it happens, one
//     record (register and memory read/write sets) per retired instruction.
//     The internal/ilp analysers that regenerate the paper's Fig. 7 read
//     it through backend.Emulator.Stream, whose hook copies each record
//     into a batch for them on a second goroutine; a caller that wants
//     records kept copies them (CPU.TraceHook).
//  3. Sequential execution of fork programs: fork/endfork are executed with
//     their *sequential-trace* semantics (the section total order of §2),
//     which makes the emulator the functional oracle for the many-core
//     machine simulator. A fork behaves as "continue into the callee now,
//     resume the continuation at endfork with the non-volatile registers
//     copied at the fork" — exactly the register-transfer the paper's
//     section-creation message performs.
package emu

import (
	"encoding/binary"
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
		return binary.LittleEndian.Uint64(p[off:])
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
		binary.LittleEndian.PutUint64(m.page(addr, true)[off:], v)
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

	// TraceHook, when set, receives every retired instruction's record, on
	// the goroutine that runs the CPU, in trace order. The record is the
	// CPU's own and is overwritten by the next step: a hook that keeps it
	// copies it. backend.Emulator.Stream's hook copies it into a batch for a
	// sink on a second goroutine.
	TraceHook func(*trace.Record)

	// MaxSteps bounds the run; 0 means the default (256M).
	MaxSteps int64

	level     int32
	forkStack []forkFrame
	halted    bool
	rec       trace.Record
	// footprints is Prog's decoded table.
	footprints []isa.Footprint
}

// New prepares a CPU to run prog from its entry point, with the data segment
// loaded and the stack pointer initialised.
func New(prog *isa.Program) *CPU {
	c := &CPU{Prog: prog, Mem: NewMemory(), footprints: prog.Footprints()}
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

// Step executes one instruction: a control instruction here, a data
// instruction through isa.Exec, with the memory accesses its footprint names.
func (c *CPU) Step() error {
	if c.halted {
		return nil
	}
	if c.IP < 0 || c.IP >= int64(len(c.Prog.Text)) {
		return &Fault{IP: c.IP, Seq: c.Steps, Msg: "instruction fetch out of text segment"}
	}
	in, f := &c.Prog.Text[c.IP], &c.footprints[c.IP]

	// Both addresses form from the registers as they stand before the
	// instruction executes: the stack operands of isa.MemRead/MemWrite are
	// (%rsp) for pop/ret and -8(%rsp) for push/call.
	var load, store, word uint64
	if f.HasLoad {
		load = f.Load.Addr(&c.Regs)
		word = c.Mem.ReadU64(load)
	}
	if f.HasStore {
		store = f.Store.Addr(&c.Regs)
	}

	var rec *trace.Record
	if c.TraceHook != nil {
		// Field by field: a composite literal would be built on the stack
		// (it reads the CPU it is written into) and copied over, and the
		// copy's wide loads stall on the narrow stores that built it.
		rec = &c.rec
		rec.Seq, rec.IP, rec.CallLevel, rec.Op = c.Steps, c.IP, c.level, in.Op
		rec.Regs, rec.HasLoad, rec.HasStore = f.Regs, f.HasLoad, f.HasStore
		rec.Load, rec.Store = load, store
	}

	next := c.IP + 1
	taken := false

	switch in.Op {
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
		word = uint64(c.IP + 1)
		next = in.Target
		taken = true
		c.level++
	case isa.RET:
		c.Regs[isa.RSP] += 8
		next = int64(word)
		taken = true
		if c.level > 0 {
			c.level--
		}

	case isa.FORK:
		var fr forkFrame
		fr.resumeIP = c.IP + 1
		fr.level = c.level
		for _, r := range NonVolatile {
			fr.saved[r] = c.Regs[r]
		}
		c.forkStack = append(c.forkStack, fr)
		next = in.Target
		taken = true
		c.level++
	case isa.ENDFORK:
		if len(c.forkStack) == 0 {
			c.halted = true
			taken = true
			break
		}
		fr := c.forkStack[len(c.forkStack)-1]
		c.forkStack = c.forkStack[:len(c.forkStack)-1]
		for _, r := range NonVolatile {
			c.Regs[r] = fr.saved[r]
		}
		next = fr.resumeIP
		c.level = fr.level
		taken = true

	case isa.HLT:
		c.halted = true

	default:
		var err error
		if word, err = isa.Exec(in, &c.Regs, word); err != nil {
			return c.fault(in, err.Error())
		}
	}
	if f.HasStore {
		c.Mem.WriteU64(store, word)
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
