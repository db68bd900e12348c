package isa

import "fmt"

// MaxReads and MaxWrites bound an instruction's register read and write sets,
// duplicates included: the widest reads are divq with a base+index divisor
// (rax, rdx, base, index) or two base+index operands, the widest writes a
// destination plus Flags, or rax plus rdx.
const (
	MaxReads  = 4
	MaxWrites = 2
)

// RegSets holds an instruction's register read and write sets inline: a fixed
// value with no pointers, so a table of them, or a trace record carrying one,
// is a flat allocation the collector never scans.
type RegSets struct {
	reads           [MaxReads]Reg
	writes          [MaxWrites]Reg
	nReads, nWrites uint8
}

// NewRegSets copies the two sets in. A set that outgrows its array panics: a
// silently shortened set would drop dependences from every reader.
func NewRegSets(reads, writes []Reg) RegSets {
	if len(reads) > MaxReads || len(writes) > MaxWrites {
		panic(fmt.Sprintf("isa: %d reads and %d writes do not fit %d and %d", len(reads), len(writes), MaxReads, MaxWrites))
	}
	var s RegSets
	s.nReads = uint8(copy(s.reads[:], reads))
	s.nWrites = uint8(copy(s.writes[:], writes))
	return s
}

// Reads returns the registers read. The slice aliases s.
func (s *RegSets) Reads() []Reg { return s.reads[:s.nReads] }

// Writes returns the registers written. The slice aliases s.
func (s *RegSets) Writes() []Reg { return s.writes[:s.nWrites] }

// MemRef is a memory operand's address, disp(base,index,scale), without the
// symbol it was written with. Base and Index of NoReg mean "absent".
type MemRef struct {
	Imm   int64
	Base  Reg
	Index Reg
	Scale uint8
}

// Footprint is what one static instruction reads and writes, decoded once:
// the answers of RegReads, RegWrites, AddrRegs, MemRead, MemWrite and
// Classify, which stay the one definition of each. The emulator's trace
// records, the ILP analysers that read them and the machine's stages all take
// an instruction's dependences from here rather than re-deriving them on
// every dynamic instance.
type Footprint struct {
	// Regs is RegReads and RegWrites: operand order, duplicates kept.
	Regs RegSets
	// Uniq is the same sets with duplicates dropped, first occurrence kept.
	Uniq RegSets
	// Load and Store are MemRead's and MemWrite's operands, when HasLoad and
	// HasStore.
	Load, Store       MemRef
	AddrRegs          RegMask
	HasLoad, HasStore bool
	Class             Class
}

// Footprints returns one row per instruction of Text, in Text order. The
// table is built on the first call, once even when goroutines sharing the
// program make that call together, and kept: Text must not change after a
// program's first use. The table is not part of Encode.
func (p *Program) Footprints() []Footprint {
	p.footprintOnce.Do(func() {
		p.footprints = make([]Footprint, len(p.Text))
		for i := range p.Text {
			p.footprints[i] = p.Text[i].footprint()
		}
	})
	return p.footprints
}

func (in *Instruction) footprint() Footprint {
	var rbuf [MaxReads]Reg
	var wbuf [MaxWrites]Reg
	reads, writes := in.RegReads(rbuf[:0]), in.RegWrites(wbuf[:0])
	f := Footprint{Regs: NewRegSets(reads, writes), AddrRegs: in.AddrRegs(), Class: in.Classify()}
	f.Uniq = NewRegSets(dedup(reads), dedup(writes))
	if o, ok := in.MemRead(); ok {
		f.Load, f.HasLoad = o.ref(), true
	}
	if o, ok := in.MemWrite(); ok {
		f.Store, f.HasStore = o.ref(), true
	}
	return f
}

func (o *Operand) ref() MemRef {
	return MemRef{Imm: o.Imm, Base: o.Base, Index: o.Index, Scale: o.Scale}
}

// Addr returns the address disp+base+index·scale with the registers regs
// holds: the one place the ISA forms an address.
func (m *MemRef) Addr(regs *[NumRegs]uint64) uint64 {
	a := uint64(m.Imm)
	if m.Base != NoReg {
		a += regs[m.Base]
	}
	if m.Index != NoReg {
		a += regs[m.Index] * uint64(m.Scale)
	}
	return a
}

// dedup drops duplicates (and anything that is not a register) in place,
// keeping the first occurrence of each.
func dedup(rs []Reg) []Reg {
	out := rs[:0]
	var seen RegMask
	for _, r := range rs {
		if r < NumRegs && !seen.Has(r) {
			seen.Add(r)
			out = append(out, r)
		}
	}
	return out
}
