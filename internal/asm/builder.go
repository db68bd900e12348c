package asm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/isa"
)

// Builder is the assembler's back end, the one place a program is laid out:
// code labels, instructions with symbolic targets and data-symbol operands,
// data symbols with their words and zeroed bytes. Finish resolves every
// symbol and returns the program, its Text allocated once at its final
// length. Assemble is its text front end; internal/minic's code generator
// emits into it directly.
//
// Emit enforces the operand forms every front end shares: no instruction
// reads and writes two memory operands, no destination is an immediate,
// leaq computes a memory operand's address into a register, push and pop
// have the stack slot as their one data address, and popq %rsp is refused.
//
// The first error sticks: later calls do nothing and Finish returns it.
type Builder struct {
	s       *scratch
	prog    *Program
	dataOff uint64
	line    int // the text front end's current line; 0 for other front ends
	err     error
}

// scratch is what a Builder grows while it builds and Finish copies out of:
// pooled, so a front end's program is the only thing assembling leaves. The
// text is kept in chunks, so that growing it copies nothing and a scratch
// that comes new from the pool (after a garbage collection has emptied it)
// allocates about the program's length once more, not a doubling series.
type scratch struct {
	chunks [][]isa.Instruction // chunkLen instructions each; those past n are spare
	n      int                 // instructions in the text
	fixups []fixup
	quads  []quad
}

const chunkLen = 32

func (s *scratch) add(in isa.Instruction) {
	c := s.n / chunkLen
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]isa.Instruction, chunkLen))
	}
	s.chunks[c][s.n%chunkLen] = in
	s.n++
}

// text copies the text into a slice of its length.
func (s *scratch) text() []isa.Instruction {
	text := make([]isa.Instruction, s.n)
	for c := 0; c*chunkLen < s.n; c++ {
		copy(text[c*chunkLen:], s.chunks[c])
	}
	return text
}

// reset empties s for the next Builder, keeping its chunks.
func (s *scratch) reset() {
	for c := 0; c*chunkLen < s.n; c++ {
		clear(s.chunks[c])
	}
	s.n, s.fixups, s.quads = 0, s.fixups[:0], s.quads[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fixup is a symbol an instruction names, resolved by Finish.
type fixup struct {
	instr int    // index into the text
	sym   string // the symbol
	where int    // 0 = Target, 1 = Src, 2 = Dst
	line  int
}

// quad is an initialised data word.
type quad struct {
	off uint64
	v   int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{s: scratchPool.Get().(*scratch), prog: isa.NewProgram()}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = &Error{b.line, fmt.Sprintf(format, args...)}
	}
}

// Label defines a code label at the next instruction.
func (b *Builder) Label(name string) {
	if b.err != nil {
		return
	}
	if _, dup := b.prog.Labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.prog.Labels[name] = int64(b.s.n)
}

// Data defines a data symbol at the end of the data laid out so far.
func (b *Builder) Data(name string) {
	if b.err != nil {
		return
	}
	if _, dup := b.prog.DataSyms[name]; dup {
		b.fail("duplicate data symbol %q", name)
		return
	}
	b.prog.DataSyms[name] = isa.DataBase + b.dataOff
}

// Quad lays out one initialised 64-bit word.
func (b *Builder) Quad(v int64) {
	if off := b.dataOff; b.reserve(8) && v != 0 {
		b.s.quads = append(b.s.quads, quad{off, v})
	}
}

// Space lays out size zeroed bytes.
func (b *Builder) Space(size uint64) { b.reserve(size) }

// reserve grows the data segment by size bytes, or refuses to: a segment
// longer than StackTop-DataBase overlaps the stack.
func (b *Builder) reserve(size uint64) bool {
	if b.err != nil {
		return false
	}
	if size > isa.StackTop-isa.DataBase-b.dataOff {
		b.fail("%d data bytes after the first %d would overlap the stack at %#x", size, b.dataOff, isa.StackTop)
		return false
	}
	b.dataOff += size
	return true
}

// Emit appends an instruction. A jump, call or fork names its target in
// Label; an operand whose Sym is set holds its displacement (or immediate)
// relative to that symbol, a data symbol or, for an immediate, a code label.
func (b *Builder) Emit(in isa.Instruction) {
	if b.err != nil {
		return
	}
	if msg := formError(&in); msg != "" {
		b.fail("%s", msg)
		return
	}
	at := b.s.n
	switch in.Op {
	case isa.JMP, isa.Jcc, isa.CALL, isa.FORK:
		b.s.fixups = append(b.s.fixups, fixup{at, in.Label, 0, b.line})
	}
	if in.Src.Sym != "" {
		b.s.fixups = append(b.s.fixups, fixup{at, in.Src.Sym, 1, b.line})
	}
	if in.Dst.Sym != "" {
		b.s.fixups = append(b.s.fixups, fixup{at, in.Dst.Sym, 2, b.line})
	}
	b.s.add(in)
}

// mnemonic names in's opcode as the text does, condition suffix included.
func mnemonic(in *isa.Instruction) string {
	if in.Op == isa.Jcc || in.Op == isa.SETcc {
		return in.Op.String() + in.Cond.String()
	}
	return in.Op.String()
}

// formError says what is wrong with in's operands, or returns "".
func formError(in *isa.Instruction) string {
	src, dst := in.Src.Kind, in.Dst.Kind
	switch in.Op {
	case isa.NOP, isa.CQTO, isa.RET, isa.ENDFORK, isa.HLT:
	case isa.JMP, isa.Jcc, isa.CALL, isa.FORK:
		if in.Label == "" {
			return mnemonic(in) + " needs a label target"
		}
	case isa.SETcc:
		switch dst {
		case isa.KindNone:
			return mnemonic(in) + " needs one operand"
		case isa.KindImm:
			return mnemonic(in) + ": operand cannot be an immediate"
		}
	case isa.PUSH, isa.POP, isa.NEG, isa.NOT, isa.INC, isa.DEC, isa.DIV, isa.IDIV:
		o := in.Dst
		if in.Op == isa.PUSH {
			o = in.Src
		}
		switch {
		case o.Kind == isa.KindNone:
			return mnemonic(in) + " needs one operand"
		case o.Kind == isa.KindImm && in.Op != isa.PUSH:
			return mnemonic(in) + ": operand cannot be an immediate"
		case o.Kind == isa.KindMem && (in.Op == isa.PUSH || in.Op == isa.POP):
			// The stack slot is the instruction's one data address.
			return mnemonic(in) + ": a memory operand would be a second data address"
		case in.Op == isa.POP && o.Kind == isa.KindReg && o.Reg == isa.RSP:
			return "popq %rsp: the stack update and the loaded word would both be rsp"
		}
	default: // the two-operand forms
		switch {
		case src == isa.KindNone || dst == isa.KindNone:
			return mnemonic(in) + " needs two operands"
		case src == isa.KindMem && dst == isa.KindMem:
			return mnemonic(in) + ": both operands cannot be memory"
		case dst == isa.KindImm:
			return mnemonic(in) + ": destination cannot be an immediate"
		case in.Op == isa.LEA && (src != isa.KindMem || dst != isa.KindReg):
			return "leaq needs a memory source and a register destination"
		}
	}
	return ""
}

// Finish resolves every symbol, lays out the data segment and returns the
// program. The entry point is the label "_start" if there is one, else
// "main", else instruction 0. The Builder is spent.
func (b *Builder) Finish() (*Program, error) {
	s, p := b.s, b.prog
	b.s, b.prog = nil, nil
	defer func() {
		s.reset()
		scratchPool.Put(s)
	}()
	if b.err != nil {
		return nil, b.err
	}
	p.Text = s.text()
	if b.dataOff > 0 {
		p.Data = make([]byte, b.dataOff)
		for _, q := range s.quads {
			binary.LittleEndian.PutUint64(p.Data[q.off:], uint64(q.v))
		}
	}
	for _, f := range s.fixups {
		in := &p.Text[f.instr]
		if f.where == 0 { // control-flow target: code label
			t, ok := p.Labels[f.sym]
			if !ok {
				return nil, &Error{f.line, fmt.Sprintf("undefined label %q", f.sym)}
			}
			in.Target = t
			continue
		}
		o := &in.Src
		if f.where == 2 {
			o = &in.Dst
		}
		if addr, ok := p.DataSyms[f.sym]; ok {
			o.Imm += int64(addr)
		} else if t, ok := p.Labels[f.sym]; ok && o.Kind == isa.KindImm {
			// Address-of a code label (e.g. function pointers).
			o.Imm += t
		} else {
			return nil, &Error{f.line, fmt.Sprintf("undefined symbol %q", f.sym)}
		}
	}
	if e, ok := p.Labels["_start"]; ok {
		p.Entry = e
	} else if e, ok := p.Labels["main"]; ok {
		p.Entry = e
	}
	return p, nil
}
