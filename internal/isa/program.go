package isa

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"sync"
)

// Memory layout constants shared by the assembler, emulator and machine.
const (
	// DataBase is the byte address where the data segment is loaded.
	DataBase uint64 = 0x10000
	// StackTop is the initial stack pointer; the stack grows down.
	StackTop uint64 = 0x7fff0000
)

// Program is a loadable unit: a text segment (one instruction per code
// address), an initialised data segment and symbol tables. Text is fixed once
// the program is first run: its decoded footprints (Footprints) are built
// then and kept.
type Program struct {
	Text     []Instruction
	Data     []byte            // initial data segment image, loaded at DataBase
	Labels   map[string]int64  // code symbols -> instruction index
	DataSyms map[string]uint64 // data symbols -> byte address
	Entry    int64             // instruction index where execution starts

	footprintOnce sync.Once
	footprints    []Footprint
}

// NewProgram returns an empty program with initialised symbol tables.
func NewProgram() *Program {
	return &Program{
		Labels:   make(map[string]int64),
		DataSyms: make(map[string]uint64),
	}
}

// DataAddr resolves a data symbol to its absolute byte address.
func (p *Program) DataAddr(sym string) (uint64, bool) {
	v, ok := p.DataSyms[sym]
	return v, ok
}

// Binary encoding. These are the program bytes the sweep cache key hashes
// (sweep.keyPrefix): entry, text, data and both symbol tables. An
// instruction's Label and an operand's Sym only name what Target and Imm
// hold, and are left out. Nothing decodes the bytes, and they do not model
// x86 machine code.

const progMagic = "MCP1" // Many-Core Program, version 1

// Encode serialises the program.
func (p *Program) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(progMagic)
	writeU64 := func(v uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v)
		b.Write(tmp[:])
	}
	writeStr := func(s string) {
		writeU64(uint64(len(s)))
		b.WriteString(s)
	}
	writeU64(uint64(p.Entry))
	writeU64(uint64(len(p.Text)))
	for i := range p.Text {
		encodeInstr(&b, &p.Text[i])
	}
	writeU64(uint64(len(p.Data)))
	b.Write(p.Data)
	writeU64(uint64(len(p.Labels)))
	for _, k := range slices.Sorted(maps.Keys(p.Labels)) {
		writeStr(k)
		writeU64(uint64(p.Labels[k]))
	}
	writeU64(uint64(len(p.DataSyms)))
	for _, k := range slices.Sorted(maps.Keys(p.DataSyms)) {
		writeStr(k)
		writeU64(p.DataSyms[k])
	}
	return b.Bytes()
}

func encodeOperand(b *bytes.Buffer, o *Operand) {
	b.WriteByte(byte(o.Kind))
	switch o.Kind {
	case KindReg:
		b.WriteByte(byte(o.Reg))
	case KindImm:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(o.Imm))
		b.Write(tmp[:])
	case KindMem:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(o.Imm))
		b.Write(tmp[:])
		b.WriteByte(byte(o.Base))
		b.WriteByte(byte(o.Index))
		b.WriteByte(o.Scale)
	}
}

func encodeInstr(b *bytes.Buffer, in *Instruction) {
	b.WriteByte(byte(in.Op))
	b.WriteByte(byte(in.Cond))
	encodeOperand(b, &in.Src)
	encodeOperand(b, &in.Dst)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(in.Target))
	b.Write(tmp[:])
}
