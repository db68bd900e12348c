package asm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/isa"
)

// Listing prints p as assembly text: its code labels and instructions, then
// its data symbols with their bytes as 64-bit words (.quad) and runs of zero
// words (.space). When each data symbol holds whole words, as every program
// the mini-C code generator emits and every internal/progs listing does,
// Assemble reads the listing back to a program with the same Encode bytes.
func Listing(p *Program) string {
	var b strings.Builder
	labels := byAddress(p.Labels)
	k := 0
	for i, in := range p.Text {
		for ; k < len(labels) && labels[k].at <= int64(i); k++ {
			fmt.Fprintf(&b, "%s:\n", labels[k].name)
		}
		fmt.Fprintf(&b, "\t%s\n", in.Format(func(o isa.Operand) string { return symbolic(p, o) }))
	}
	for ; k < len(labels); k++ {
		fmt.Fprintf(&b, "%s:\n", labels[k].name)
	}
	if len(p.Data) == 0 && len(p.DataSyms) == 0 {
		return b.String()
	}
	b.WriteString(".data\n")
	from := uint64(0)
	for _, s := range byAddress(p.DataSyms) {
		off := min(max(s.at, isa.DataBase)-isa.DataBase, uint64(len(p.Data)))
		listWords(&b, p.Data[from:max(off, from)])
		from = max(off, from)
		fmt.Fprintf(&b, "%s:\n", s.name)
	}
	listWords(&b, p.Data[from:])
	return b.String()
}

// symbolic prints p's operand o as the text names it: relative to its
// symbol.
func symbolic(p *Program, o isa.Operand) string {
	if addr, ok := p.DataSyms[o.Sym]; ok {
		return o.Relative(int64(addr))
	} else if t, ok := p.Labels[o.Sym]; ok && o.Kind == isa.KindImm {
		return o.Relative(t)
	}
	return o.String()
}

// listWords prints data as .quad for each non-zero word and .space for each
// run of zero words; a last, partial word is listed as zero bytes.
func listWords(b *strings.Builder, data []byte) {
	for i := 0; i < len(data); {
		if i+8 <= len(data) {
			if w := binary.LittleEndian.Uint64(data[i:]); w != 0 {
				fmt.Fprintf(b, "\t.quad %d\n", int64(w))
				i += 8
				continue
			}
		}
		j := i + 8
		for j+8 <= len(data) && binary.LittleEndian.Uint64(data[j:]) == 0 {
			j += 8
		}
		j = min(j, len(data))
		fmt.Fprintf(b, "\t.space %d\n", j-i)
		i = j
	}
}

type symbol[A int64 | uint64] struct {
	name string
	at   A
}

// byAddress lists a symbol table in address order, names breaking ties.
func byAddress[A int64 | uint64](m map[string]A) []symbol[A] {
	s := make([]symbol[A], 0, len(m))
	for name, at := range m {
		s = append(s, symbol[A]{name, at})
	}
	slices.SortFunc(s, func(a, b symbol[A]) int {
		return cmp.Or(cmp.Compare(a.at, b.at), strings.Compare(a.name, b.name))
	})
	return s
}
