// Package emu implements the functional (sequential) emulator for the ISA.
//
// It serves three roles in the reproduction:
//
//  1. Reference semantics: every program — mini-C output, hand-written
//     listings, PBBS kernels — is validated here before any ILP analysis or
//     machine simulation.
//  2. Trace production: the CPU writes the dynamic trace as it happens, one
//     record (register and memory read/write sets) per retired instruction,
//     in place into the slots of a buffer its hook refills (CPU.Trace,
//     CPU.TraceHook). The internal/ilp analysis that regenerates the
//     paper's Fig. 7 reads it through backend.Emulator.Stream, whose
//     buffers are the batches it hands to a second goroutine, where the
//     sink is called once per batch; a stored trace is one buffer grown to
//     the whole run (trace.Buffer.Grow). No record is copied.
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

// cacheSlots is the size of Memory's page cache: a power of two, and enough
// slots that a kernel's data, heap and stack pages seldom share one.
const cacheSlots = 64

// noPage is a cache slot's tag while it holds no page: page numbers are
// below 2^(64-pageBits), so no address has it.
const noPage = ^uint64(0)

// Memory is a sparse, paged, byte-addressed 64-bit memory.
type Memory struct {
	pages map[uint64]*[pageSize]byte
	// cache is a direct-mapped cache of pages, slot pn%cacheSlots holding
	// page pn or noPage, in front of pages for the aligned-word accesses.
	// Pages are never unmapped (Reset clears them in place), so a cached
	// page stays the page its tag names.
	cache [cacheSlots]struct {
		pn uint64
		p  *[pageSize]byte
	}
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[uint64]*[pageSize]byte)}
	for i := range m.cache {
		m.cache[i].pn = noPage
	}
	return m
}

// page returns the page holding addr, mapping it first when create is set;
// an unmapped page is nil. A mapped page enters the cache.
func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil {
		if !create {
			return nil
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	e := &m.cache[pn%cacheSlots]
	e.pn, e.p = pn, p
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

// word returns the 8 bytes at addr when its page is in the cache and they do
// not cross into the next page, and nil otherwise: the fast path of ReadU64
// and WriteU64, small enough for CPU.Run to inline. A word that crosses
// names the next page (page 0 after the highest), which never sits in the
// slot of addr's page.
func (m *Memory) word(addr uint64) *[8]byte {
	if e := &m.cache[(addr>>pageBits)%cacheSlots]; e.pn == (addr+7)>>pageBits {
		return (*[8]byte)(e.p[addr&(pageSize-1):])
	}
	return nil
}

// ReadU64 reads the 8-byte little-endian word at addr. Unmapped bytes read
// as zero.
func (m *Memory) ReadU64(addr uint64) uint64 {
	if w := m.word(addr); w != nil {
		return binary.LittleEndian.Uint64(w[:])
	}
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
	if w := m.word(addr); w != nil {
		binary.LittleEndian.PutUint64(w[:], v)
		return
	}
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
}

// CPU is the emulator state.
type CPU struct {
	Prog  *isa.Program
	Regs  [isa.NumRegs]uint64
	IP    int64
	Mem   *Memory
	Steps int64

	// Trace is where the CPU writes the dynamic trace while TraceHook is
	// set: each retiring instruction's record goes, every field of it, into
	// the slot Trace.Records[Trace.N], in trace order, and Trace.N counts
	// it. A faulting instruction's record is written but not counted. When
	// the slots are all written (an empty Trace included), the CPU calls
	// TraceHook, on its own goroutine, before the next record: the hook
	// takes Trace.Records[:Trace.N] and must leave Trace with a free slot,
	// a new buffer or a grown one. The records the hook has not taken when
	// the run ends are Trace.Records[:Trace.N].
	Trace     trace.Buffer
	TraceHook func(*trace.Buffer)

	// MaxSteps bounds the run; 0 means the default (256M).
	MaxSteps int64

	level     int32
	forkStack []forkFrame
	halted    bool
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

// Run executes until HLT, a fault or the step bound, and returns the step
// count: a control instruction here, a data instruction through isa.Exec,
// with the memory accesses its footprint names.
//
// The loop holds the CPU's state in locals, which the stores into a trace
// slot cannot alias, and writes it back to c when it returns and before it
// calls TraceHook.
func (c *CPU) Run() (int64, error) {
	if c.halted {
		return c.Steps, nil
	}
	max := c.MaxSteps
	if max == 0 {
		max = 256 << 20
	}
	text, fps, mem, hook := c.Prog.Text, c.footprints, c.Mem, c.TraceHook
	ip, steps, level, regs := c.IP, c.Steps, c.level, c.Regs
	recs, n := c.Trace.Records, c.Trace.N
	halted := false
	var err error
loop:
	for !halted {
		if steps >= max {
			err = &Fault{IP: ip, Seq: steps, Msg: fmt.Sprintf("step limit %d exceeded", max)}
			break
		}
		if ip < 0 || ip >= int64(len(text)) {
			err = &Fault{IP: ip, Seq: steps, Msg: "instruction fetch out of text segment"}
			break
		}
		in, f := &text[ip], &fps[ip]

		// Both addresses form from the registers as they stand before the
		// instruction executes: the stack operands of isa.MemRead/MemWrite
		// are (%rsp) for pop/ret and -8(%rsp) for push/call.
		var load, store, word uint64
		if f.HasLoad {
			load = f.Load.Addr(&regs)
			if w := mem.word(load); w != nil {
				word = binary.LittleEndian.Uint64(w[:])
			} else {
				word = mem.ReadU64(load)
			}
		}
		if f.HasStore {
			store = f.Store.Addr(&regs)
		}

		var rec *trace.Record
		if hook != nil {
			if n == len(recs) {
				c.IP, c.Steps, c.level, c.Regs, c.Trace.N = ip, steps, level, regs, n
				hook(&c.Trace)
				recs, n = c.Trace.Records, c.Trace.N
			}
			// Field by field: a composite literal would be built on the
			// stack and copied over, and the copy's wide loads stall on the
			// narrow stores that built it.
			rec = &recs[n]
			rec.IP, rec.CallLevel, rec.Op = ip, level, in.Op
			rec.Regs, rec.HasLoad, rec.HasStore = f.Regs, f.HasLoad, f.HasStore
			rec.Load, rec.Store = load, store
		}

		next := ip + 1
		taken := false

		switch in.Op {
		case isa.JMP:
			next = in.Target
			taken = true
		case isa.Jcc:
			if in.Cond.Eval(isa.FlagsVal(regs[isa.Flags])) {
				next = in.Target
				taken = true
			}
		case isa.CALL:
			regs[isa.RSP] -= 8
			word = uint64(ip + 1)
			next = in.Target
			taken = true
			level++
		case isa.RET:
			regs[isa.RSP] += 8
			next = int64(word)
			taken = true
			if level > 0 {
				level--
			}

		case isa.FORK:
			var fr forkFrame
			fr.resumeIP = ip + 1
			fr.level = level
			for _, r := range NonVolatile {
				fr.saved[r] = regs[r]
			}
			c.forkStack = append(c.forkStack, fr)
			next = in.Target
			taken = true
			level++
		case isa.ENDFORK:
			if len(c.forkStack) == 0 {
				halted = true
				taken = true
				break
			}
			fr := c.forkStack[len(c.forkStack)-1]
			c.forkStack = c.forkStack[:len(c.forkStack)-1]
			for _, r := range NonVolatile {
				regs[r] = fr.saved[r]
			}
			next = fr.resumeIP
			level = fr.level
			taken = true

		case isa.HLT:
			halted = true

		default:
			var xerr error
			if word, xerr = isa.Exec(in, &regs, word); xerr != nil {
				err = &Fault{IP: ip, Seq: steps, Msg: xerr.Error(), Inst: in.String()}
				break loop // its record is written, not counted
			}
		}
		if f.HasStore {
			if w := mem.word(store); w != nil {
				binary.LittleEndian.PutUint64(w[:], word)
			} else {
				mem.WriteU64(store, word)
			}
		}

		if rec != nil {
			rec.Taken = taken
			n++
		}
		steps++
		if !halted {
			ip = next
		}
	}
	c.IP, c.Steps, c.level, c.Regs, c.halted, c.Trace.N = ip, steps, level, regs, halted, n
	return steps, err
}

// RunProgram runs prog to completion without tracing and returns the final CPU.
func RunProgram(prog *isa.Program) (*CPU, error) {
	c := New(prog)
	_, err := c.Run()
	return c, err
}
