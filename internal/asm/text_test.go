package asm_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
)

var modes = []minic.Mode{minic.ModeFork, minic.ModeCall}

// listings are the paper's and the repository's hand-written programs.
var listings = map[string]string{
	"sum call": progs.SumCallBody, "sum fork": progs.SumForkBody,
	"fib call": progs.FibCallBody, "fib fork": progs.FibForkBody,
	"max fork": progs.MaxForkBody,
}

// TestTextIsAllocatedOnce: the Builder lays the program out in pooled
// scratch and copies it into a Text of exactly its length, one allocation.
// That is what a front end retains (and what the sweep engine's front-end
// memo charges), and growing it by doubling used to be most of what
// assembling allocated. Every kernel's fork- and call-mode program at n=64
// must have cap(Text) == len(Text), and so must every progs listing's. Over
// the progs listings, assembling may allocate besides Text at most 10 bytes
// per byte of source: 1.7 through the Builder (3.2 under -race, where the
// pool drops scratch), 2.7 while Assemble sized Text by a counting pass of
// its own. On the kernels' printed assembly, which the compiler no longer
// prints, that pass read 6.4, and 17.9 while Text doubled.
func TestTextIsAllocatedOnce(t *testing.T) {
	for _, k := range pbbs.Kernels() {
		for _, mode := range modes {
			p, err := k.Build(64, mode)
			if err != nil {
				t.Fatalf("%s %s: %v", k.Name, mode, err)
			}
			if cap(p.Text) != len(p.Text) {
				t.Errorf("%s %s: Text holds %d instructions in room for %d", k.Name, mode, len(p.Text), cap(p.Text))
			}
		}
	}
	const perSourceByte = 10
	var srcBytes, rest int
	for name, src := range listings {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(p.Text) != len(p.Text) {
			t.Errorf("%s: Text holds %d instructions in room for %d", name, len(p.Text), cap(p.Text))
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := asm.Assemble(src); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		srcBytes += len(src)
		rest += int(after.TotalAlloc-before.TotalAlloc)/runs - len(p.Text)*int(unsafe.Sizeof(isa.Instruction{}))
	}
	t.Logf("%d bytes allocated besides Text for %d bytes of source: %.1f per byte", rest, srcBytes, float64(rest)/float64(srcBytes))
	if rest > perSourceByte*srcBytes {
		t.Errorf("assembling allocated %d bytes besides Text for %d bytes of source, bound %d per byte",
			rest, srcBytes, perSourceByte)
	}
}

// TestListingReassembles: the two front ends agree. Every kernel's compiled
// program, listed as text and assembled again, has the same Encode bytes in
// both modes, and so does every progs listing.
func TestListingReassembles(t *testing.T) {
	check := func(name string, p *isa.Program) {
		t.Helper()
		q, err := asm.Assemble(asm.Listing(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(q.Encode(), p.Encode()) {
			t.Errorf("%s: the listing assembles to another program:\n%s", name, asm.Listing(p))
		}
	}
	for _, k := range pbbs.Kernels() {
		for _, mode := range modes {
			p, err := k.Build(64, mode)
			if err != nil {
				t.Fatal(err)
			}
			check(k.Name+" "+mode.String(), p)
		}
	}
	for name, src := range listings {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		check(name, p)
	}
	sum, err := progs.BuildSumFork(progs.Vector(5))
	if err != nil {
		t.Fatal(err)
	}
	check("sum fork over a vector", sum)
}

// TestAssembledOperandsPrintTheirAddress: an assembled data-symbol operand
// holds the symbol's address plus the text's offset, so Instruction.String
// prints that address (with the symbol it came from), and Listing prints the
// operand as the text wrote it.
func TestAssembledOperandsPrintTheirAddress(t *testing.T) {
	p, err := asm.Assemble(".data\nx: .quad 1\nt: .space 16\n.text\nmain: movq t+8, %rax\nmovq t(,%rcx,8), %rax\nmovq $t, %rdx\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.DataSyms["t"] != isa.DataBase+8 {
		t.Fatalf("t at %#x, want %#x", p.DataSyms["t"], isa.DataBase+8)
	}
	for i, want := range []string{
		fmt.Sprintf("movq %#x<t>, %%rax", isa.DataBase+16),
		fmt.Sprintf("movq %#x<t>(,%%rcx,8), %%rax", isa.DataBase+8),
		fmt.Sprintf("movq $%#x<t>, %%rdx", isa.DataBase+8),
	} {
		if got := p.Text[i].String(); got != want {
			t.Errorf("instruction %d prints %q, want %q", i, got, want)
		}
	}
	for _, want := range []string{"\tmovq t+8, %rax\n", "\tmovq t(,%rcx,8), %rax\n", "\tmovq $t, %rdx\n"} {
		if l := asm.Listing(p); !strings.Contains(l, want) {
			t.Errorf("listing lacks %q:\n%s", want, l)
		}
	}
}
