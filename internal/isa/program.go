package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
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

// Disassemble renders the whole text segment with labels and addresses.
func (p *Program) Disassemble() string {
	byAddr := make(map[int64][]string)
	for l, a := range p.Labels {
		byAddr[a] = append(byAddr[a], l)
	}
	var b strings.Builder
	for i := range p.Text {
		labels := byAddr[int64(i)]
		sort.Strings(labels)
		for _, l := range labels {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		fmt.Fprintf(&b, "%6d:\t%s\n", i, p.Text[i].String())
	}
	return b.String()
}

// Binary encoding. The format is a compact, self-describing, versioned
// serialisation used to store assembled programs; it is not meant to model
// x86 machine code. Round-tripping is exercised by property tests.

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
	for _, k := range sortedKeys(p.Labels) {
		writeStr(k)
		writeU64(uint64(p.Labels[k]))
	}
	writeU64(uint64(len(p.DataSyms)))
	for _, k := range sortedKeysU(p.DataSyms) {
		writeStr(k)
		writeU64(p.DataSyms[k])
	}
	return b.Bytes()
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysU(m map[string]uint64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
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

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("isa: truncated program at offset %d", d.off)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = fmt.Errorf("isa: truncated program at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.u64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("isa: bad string length %d at offset %d", n, d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) operand() Operand {
	var o Operand
	o.Kind = OperandKind(d.u8())
	switch o.Kind {
	case KindNone:
	case KindReg:
		o.Reg = Reg(d.u8())
	case KindImm:
		o.Imm = int64(d.u64())
	case KindMem:
		o.Imm = int64(d.u64())
		o.Base = Reg(d.u8())
		o.Index = Reg(d.u8())
		o.Scale = d.u8()
	default:
		d.err = fmt.Errorf("isa: bad operand kind %d", o.Kind)
	}
	return o
}

// Decode deserialises a program produced by Encode.
func Decode(buf []byte) (*Program, error) {
	if len(buf) < 4 || string(buf[:4]) != progMagic {
		return nil, fmt.Errorf("isa: bad magic")
	}
	d := &decoder{buf: buf, off: 4}
	p := NewProgram()
	p.Entry = int64(d.u64())
	n := d.u64()
	if d.err == nil && n > uint64(len(buf)) {
		return nil, fmt.Errorf("isa: implausible text size %d", n)
	}
	p.Text = make([]Instruction, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		var in Instruction
		in.Op = Op(d.u8())
		in.Cond = Cond(d.u8())
		in.Src = d.operand()
		in.Dst = d.operand()
		in.Target = int64(d.u64())
		if in.Op >= NumOps {
			d.err = fmt.Errorf("isa: bad opcode %d at instruction %d", in.Op, i)
		}
		p.Text = append(p.Text, in)
	}
	nd := d.u64()
	if d.err == nil {
		if nd > uint64(len(buf)-d.off) {
			return nil, fmt.Errorf("isa: bad data size %d", nd)
		}
		p.Data = append([]byte(nil), buf[d.off:d.off+int(nd)]...)
		d.off += int(nd)
	}
	nl := d.u64()
	for i := uint64(0); i < nl && d.err == nil; i++ {
		k := d.str()
		p.Labels[k] = int64(d.u64())
	}
	ns := d.u64()
	for i := uint64(0); i < ns && d.err == nil; i++ {
		k := d.str()
		p.DataSyms[k] = d.u64()
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}
