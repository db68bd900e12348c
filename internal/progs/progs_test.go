package progs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// TestProgramTableIntegrity: every builder assembles a well-formed program —
// non-empty text, a valid entry point, a terminating hlt, and (for the
// vector workloads) the t/tlen data symbols carrying the input.
func TestProgramTableIntegrity(t *testing.T) {
	vec := Vector(5)
	builders := map[string]func() (*isa.Program, error){
		"sum-call": func() (*isa.Program, error) { return BuildSumCall(vec) },
		"sum-fork": func() (*isa.Program, error) { return BuildSumFork(vec) },
		"fib-call": func() (*isa.Program, error) { return BuildFibCall(7) },
		"fib-fork": func() (*isa.Program, error) { return BuildFibFork(7) },
		"max-fork": func() (*isa.Program, error) { return BuildMaxFork(vec) },
	}
	for name, build := range builders {
		p, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Text) == 0 {
			t.Errorf("%s: empty text", name)
		}
		if p.Entry < 0 || p.Entry >= int64(len(p.Text)) {
			t.Errorf("%s: entry %d out of text (%d instructions)", name, p.Entry, len(p.Text))
		}
		hlt := false
		for i := range p.Text {
			if p.Text[i].Op == isa.HLT {
				hlt = true
			}
		}
		if !hlt {
			t.Errorf("%s: no hlt", name)
		}
	}
	// The vector data segment: t holds the input words, tlen its length.
	p, err := BuildSumFork(vec)
	if err != nil {
		t.Fatal(err)
	}
	tAddr, ok := p.DataAddr("t")
	if !ok {
		t.Fatal("sum-fork: no data symbol t")
	}
	cpu := emu.New(p)
	for i, want := range vec {
		if got := cpu.Mem.ReadU64(tAddr + uint64(8*i)); got != want {
			t.Errorf("t[%d] = %d, want %d", i, got, want)
		}
	}
	lenAddr, ok := p.DataAddr("tlen")
	if !ok {
		t.Fatal("sum-fork: no data symbol tlen")
	}
	if got := cpu.Mem.ReadU64(lenAddr); got != uint64(len(vec)) {
		t.Errorf("tlen = %d, want %d", got, len(vec))
	}
}

// TestSumBuildersAgree: the Fig. 2 (call) and Fig. 5 (fork) listings compute
// the same sums on the emulator, matching the closed form.
func TestSumBuildersAgree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 10, 40} {
		vec := Vector(n)
		want := VectorSum(n)
		for name, build := range map[string]func([]uint64) (*isa.Program, error){
			"call": BuildSumCall, "fork": BuildSumFork,
		} {
			p, err := build(vec)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			cpu, err := emu.RunProgram(p)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if got := cpu.Result(); got != want {
				t.Errorf("%s sum(Vector(%d)) = %d, want %d", name, n, got, want)
			}
		}
	}
}

// textDataSegment is the builders' previous data segment: every element
// printed in decimal into the listing, for the assembler to parse back.
func textDataSegment(t []uint64) string {
	var b strings.Builder
	b.WriteString(".data\n")
	b.WriteString("t: .quad ")
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	fmt.Fprintf(&b, "\ntlen: .quad %d\n", len(t))
	return b.String()
}

// TestSumBuildersMatchTextAssembly: writing the vector into the assembled
// image gives the program the all-text listing gave — same text, data bytes,
// symbols and entry — for one element, two, an odd count and the paper's
// 2 560, with values that use all 64 bits.
func TestSumBuildersMatchTextAssembly(t *testing.T) {
	for _, b := range []struct {
		name, driver, body string
		build              func([]uint64) (*isa.Program, error)
	}{
		{"call", "call sum", SumCallBody, BuildSumCall},
		{"fork", "fork sum", SumForkBody, BuildSumFork},
		{"vmax", "fork vmax", MaxForkBody, BuildMaxFork},
	} {
		for _, n := range []int{1, 2, 5, 2560} {
			vec := make([]uint64, n)
			for i := range vec {
				vec[i] = uint64(i+1) * 0x9e3779b97f4a7c15 // high bits set, never a small decimal
			}
			vec[0] = ^uint64(0)
			want, err := asm.Assemble(fmt.Sprintf(`
_start: movq $t, %%rdi
        movq $%d, %%rsi
        %s
        hlt
%s
%s`, n, b.driver, b.body, textDataSegment(vec)))
			if err != nil {
				t.Fatalf("%s n=%d: text assembly: %v", b.name, n, err)
			}
			got, err := b.build(vec)
			if err != nil {
				t.Fatalf("%s n=%d: %v", b.name, n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s n=%d: the builder's program differs from the text-assembled one", b.name, n)
			}
		}
	}
}

// TestSumInstructionsClosedForm: the fork listing's dynamic instruction count
// over 5·2ⁿ elements matches the paper's Section 5 closed form (plus the
// 4-instruction driver).
func TestSumInstructionsClosedForm(t *testing.T) {
	for n := 0; n <= 4; n++ {
		p, err := BuildSumFork(Vector(5 << uint(n)))
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := emu.RunProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := SumInstructions(n) + 4; cpu.Steps != want {
			t.Errorf("n=%d: %d instructions, want %d", n, cpu.Steps, want)
		}
	}
}

func TestFibBuilders(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 10} {
		want := Fib(n)
		for name, build := range map[string]func(int) (*isa.Program, error){
			"call": BuildFibCall, "fork": BuildFibFork,
		} {
			p, err := build(n)
			if err != nil {
				t.Fatalf("%s fib(%d): %v", name, n, err)
			}
			cpu, err := emu.RunProgram(p)
			if err != nil {
				t.Fatalf("%s fib(%d): %v", name, n, err)
			}
			if got := cpu.Result(); got != want {
				t.Errorf("%s fib(%d) = %d, want %d", name, n, got, want)
			}
		}
	}
}

func TestMaxBuilder(t *testing.T) {
	vecs := [][]uint64{{3}, {3, 9}, {9, 3}, {4, 8, 1, 9, 2, 7}}
	for _, v := range vecs {
		p, err := BuildMaxFork(v)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := emu.RunProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		for _, x := range v {
			if x > want {
				want = x
			}
		}
		if got := cpu.Result(); got != want {
			t.Errorf("vmax(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	if got := Vector(4); len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Errorf("Vector(4) = %v", got)
	}
	if got := VectorSum(10); got != 55 {
		t.Errorf("VectorSum(10) = %d", got)
	}
	if got := Fib(10); got != 55 {
		t.Errorf("Fib(10) = %d", got)
	}
}
