package asm_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// kernelAssembly is what minic.Compile hands the assembler for k at n.
func kernelAssembly(t *testing.T, k *pbbs.Kernel, n int, mode minic.Mode) string {
	t.Helper()
	src, err := k.Source(k.ClampN(n))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	text, err := minic.Generate(prog, mode)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestTextIsAllocatedOnce: Assemble counts the source's instructions before
// it assembles any, so Text is one allocation of exactly its length. That
// is what a front end retains (and what the sweep engine's front-end memo
// charges), and growing it by doubling used to be most of what assembling
// allocated. Every kernel's fork- and call-mode assembly at n=64 must have
// cap(Text) == len(Text). Over all of them, assembling may allocate besides
// Text at most 10 bytes per byte of source: 6.4 with Text sized once (7.1
// under -race), 17.9 when it doubled.
func TestTextIsAllocatedOnce(t *testing.T) {
	const perSourceByte = 10
	var srcBytes, rest int
	for _, k := range pbbs.Kernels() {
		for _, mode := range []minic.Mode{minic.ModeFork, minic.ModeCall} {
			src := kernelAssembly(t, k, 64, mode)
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("%s %s: %v", k.Name, mode, err)
			}
			if cap(p.Text) != len(p.Text) {
				t.Errorf("%s %s: Text holds %d instructions in room for %d", k.Name, mode, len(p.Text), cap(p.Text))
			}
			const runs = 5
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
	}
	t.Logf("%d bytes allocated besides Text for %d bytes of source: %.1f per byte", rest, srcBytes, float64(rest)/float64(srcBytes))
	if rest > perSourceByte*srcBytes {
		t.Errorf("assembling allocated %d bytes besides Text for %d bytes of source, bound %d per byte",
			rest, srcBytes, perSourceByte)
	}
}
