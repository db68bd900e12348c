package asm

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// fig2Listing is the paper's Fig. 2, which must assemble verbatim.
const fig2Listing = `
sum:    cmpq $2, %rsi
        ja .L2
        movq (%rdi), %rax
        jne .L1
        addq 8(%rdi), %rax
.L1:    ret
.L2:    pushq %rbx
        pushq %rdi
        pushq %rsi
        shrq %rsi
        call sum
        popq %rbx
        pushq %rbx
        subq $8, %rsp
        movq %rax, 0(%rsp)
        leaq (%rdi,%rsi,8), %rdi
        subq %rsi, %rbx
        movq %rbx, %rsi
        call sum
        addq 0(%rsp), %rax
        addq $8, %rsp
        popq %rsi
        popq %rdi
        popq %rbx
        ret
`

func TestAssembleSumFigure2(t *testing.T) {
	p, err := Assemble(fig2Listing)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Text) != 25 {
		t.Fatalf("got %d instructions, want 25", len(p.Text))
	}
	if p.Labels["sum"] != 0 {
		t.Errorf("sum label at %d, want 0", p.Labels["sum"])
	}
	if p.Labels[".L1"] != 5 {
		t.Errorf(".L1 label at %d, want 5", p.Labels[".L1"])
	}
	if p.Labels[".L2"] != 6 {
		t.Errorf(".L2 label at %d, want 6", p.Labels[".L2"])
	}
	// ja .L2 resolves to instruction 6.
	if in := p.Text[1]; in.Op != isa.Jcc || in.Cond != isa.CondA || in.Target != 6 {
		t.Errorf("instruction 1 = %+v, want ja -> 6", in)
	}
	// shrq %rsi assembles as the shift-by-one form.
	if in := p.Text[9]; in.Op != isa.SHR || in.Src.Kind != isa.KindImm || in.Src.Imm != 1 || in.Dst.Reg != isa.RSI {
		t.Errorf("instruction 9 = %+v, want shrq $1, %%rsi", in)
	}
	// call sum resolves to 0.
	if in := p.Text[10]; in.Op != isa.CALL || in.Target != 0 {
		t.Errorf("instruction 10 = %+v, want call -> 0", in)
	}
	// leaq (%rdi,%rsi,8), %rdi.
	if in := p.Text[15]; in.Op != isa.LEA || in.Src.Base != isa.RDI || in.Src.Index != isa.RSI || in.Src.Scale != 8 {
		t.Errorf("instruction 15 = %+v", in)
	}
}

const forkListing = `
f:      fork f
        endfork
`

func TestAssembleForkEndfork(t *testing.T) {
	p, err := Assemble(forkListing)
	if err != nil {
		t.Fatal(err)
	}
	if p.Text[0].Op != isa.FORK || p.Text[0].Target != 0 {
		t.Errorf("fork = %+v", p.Text[0])
	}
	if p.Text[1].Op != isa.ENDFORK {
		t.Errorf("endfork = %+v", p.Text[1])
	}
}

// dataListing reaches every data directive and data operand form.
const dataListing = `
_start: movq $t, %rdi
        movq n, %rsi
        movq t+8, %rax
        movq t(,%rcx,8), %rbx
        hlt
.data
t:      .quad 10, 20, 30
n:      .quad 3
buf:    .space 64
end:    .quad 0
`

func TestAssembleDataSection(t *testing.T) {
	p, err := Assemble(dataListing)
	if err != nil {
		t.Fatal(err)
	}
	tAddr, ok := p.DataAddr("t")
	if !ok || tAddr != isa.DataBase {
		t.Fatalf("t at %#x, want %#x", tAddr, isa.DataBase)
	}
	if n, _ := p.DataAddr("n"); n != isa.DataBase+24 {
		t.Errorf("n at %#x, want %#x", n, isa.DataBase+24)
	}
	if b, _ := p.DataAddr("buf"); b != isa.DataBase+32 {
		t.Errorf("buf at %#x, want %#x", b, isa.DataBase+32)
	}
	if e, _ := p.DataAddr("end"); e != isa.DataBase+96 {
		t.Errorf("end at %#x, want %#x", e, isa.DataBase+96)
	}
	if len(p.Data) != 104 {
		t.Errorf("data length %d, want 104", len(p.Data))
	}
	// $t resolves to the address of t.
	if in := p.Text[0]; in.Src.Kind != isa.KindImm || uint64(in.Src.Imm) != tAddr {
		t.Errorf("movq $t = %+v", in)
	}
	// n as a bare memory operand resolves to an absolute address.
	if in := p.Text[1]; in.Src.Kind != isa.KindMem || uint64(in.Src.Imm) != isa.DataBase+24 || in.Src.Base != isa.NoReg {
		t.Errorf("movq n = %+v", in)
	}
	// t+8 applies the displacement.
	if in := p.Text[2]; uint64(in.Src.Imm) != tAddr+8 {
		t.Errorf("movq t+8 = %+v", in)
	}
	// t(,%rcx,8) has index but no base.
	if in := p.Text[3]; in.Src.Base != isa.NoReg || in.Src.Index != isa.RCX || in.Src.Scale != 8 || uint64(in.Src.Imm) != tAddr {
		t.Errorf("movq t(,%%rcx,8) = %+v", in)
	}
	// Initial data content.
	if got := p.Data[0]; got != 10 {
		t.Errorf("t[0] low byte = %d, want 10", got)
	}
	// Entry resolves to _start.
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0", p.Entry)
	}
}

const commentListing = `
# full-line comment
main:   movq $1, %rax   # trailing comment
        hlt             // C++-style comment

`

func TestAssembleComments(t *testing.T) {
	p, err := Assemble(commentListing)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Text) != 2 {
		t.Fatalf("got %d instructions, want 2", len(p.Text))
	}
}

const numberListing = `
main:   movq $-8, %rax
        movq $0x10, %rbx
        movq -16(%rbp), %rcx
        hlt
`

func TestAssembleNegativeAndHex(t *testing.T) {
	p, err := Assemble(numberListing)
	if err != nil {
		t.Fatal(err)
	}
	if p.Text[0].Src.Imm != -8 {
		t.Errorf("imm = %d, want -8", p.Text[0].Src.Imm)
	}
	if p.Text[1].Src.Imm != 16 {
		t.Errorf("imm = %d, want 16", p.Text[1].Src.Imm)
	}
	if p.Text[2].Src.Imm != -16 || p.Text[2].Src.Base != isa.RBP {
		t.Errorf("mem = %+v", p.Text[2].Src)
	}
}

const setccListing = `
main:   cmpq %rbx, %rax
        sete %rcx
        setle %rdx
        hlt
`

func TestAssembleSetcc(t *testing.T) {
	p, err := Assemble(setccListing)
	if err != nil {
		t.Fatal(err)
	}
	if in := p.Text[1]; in.Op != isa.SETcc || in.Cond != isa.CondE || in.Dst.Reg != isa.RCX {
		t.Errorf("sete = %+v", in)
	}
	if in := p.Text[2]; in.Cond != isa.CondLE {
		t.Errorf("setle = %+v", in)
	}
}

// errorCases are listings Assemble refuses, each with a fragment of its error.
var errorCases = []struct {
	src  string
	want string
}{
	{"main: frobq %rax", "unknown mnemonic"},
	{"main: jmp", "needs a label target"},
	{"main: jmp 42abc", "needs a label target"},
	{"main: movq %rax", "needs two operands"},
	{"main: movq (%rax), (%rbx)", "cannot be memory"},
	{"main: movq %rax, $5", "cannot be an immediate"},
	{"main: call nowhere", "undefined label"},
	{"main: movq $nosym, %rax", "undefined symbol"},
	{"main: movq %xmm0, %rax", "unknown register"},
	{"main: ret\nmain: ret", "duplicate label"},
	{".quad 5", ".quad outside data section"},
	{".data\nx: .quad zz", "bad .quad value"},
	{".bogus", "unknown directive"},
	{"main: movq 5(%rax,%rbx,3), %rcx", "bad scale"},
	{".data\nx: .quad 1\n.text\nmain: hlt\n.data\nx: .quad 2", "duplicate data symbol"},
	// A segment reaching the stack: each size used to be an allocation of
	// that many bytes (out of memory for the first, a panic for the second).
	{".data\nt: .space 0x7fffffffffff", "overlap the stack"},
	{".data\nt: .space 9223372036854775807", "overlap the stack"},
	{".data\nt: .space 0x7ffe0001", "overlap the stack"}, // one byte past StackTop-DataBase
	// Forms with no one meaning: a push or pop of memory needs two data
	// addresses, a pop into rsp two values for rsp, and an immediate where
	// a result or a divisor goes, or a leaq of something other than an
	// address, has nothing to compute.
	{"main: pushq 8(%rax)", "second data address"},
	{"main: popq (%rsp)", "second data address"},
	{"main: popq %rsp", "both be rsp"},
	{"main: leaq %rbx, %rax", "leaq needs a memory source"},
	{"main: leaq (%rbx), (%rax)", "cannot be memory"},
	{"main: leaq $5, %rax", "leaq needs a memory source"},
	{"main: divq $3", "cannot be an immediate"},
	{"main: idivq $3", "cannot be an immediate"},
	{"main: incq $5", "cannot be an immediate"},
	{"main: negq $1", "cannot be an immediate"},
	{"main: popq $1", "cannot be an immediate"},
	{"main: setne $1", "cannot be an immediate"},
}

func TestAssembleErrors(t *testing.T) {
	for _, c := range errorCases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("Assemble(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %q, want containing %q", c.src, err, c.want)
		}
	}
}

func TestAssembleMultipleLabelsSameLine(t *testing.T) {
	p, err := Assemble(`
a: b: c: hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"a", "b", "c"} {
		if p.Labels[l] != 0 {
			t.Errorf("label %q at %d, want 0", l, p.Labels[l])
		}
	}
}

func TestEntrySelection(t *testing.T) {
	p, err := Assemble("foo: nop\nmain: hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 1 {
		t.Errorf("entry = %d, want 1 (main)", p.Entry)
	}
	p, err = Assemble("main: nop\n_start: hlt\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 1 {
		t.Errorf("entry = %d, want 1 (_start preferred)", p.Entry)
	}
}

// TestBuilderRefusesForms: the Builder holds every front end to the forms
// Assemble refuses in text, and to operands the text cannot leave out. An
// error found outside any text has no line, and the first one is what
// Finish returns.
func TestBuilderRefusesForms(t *testing.T) {
	mem, rax := isa.MemBase(0, isa.RAX), isa.RegOp(isa.RAX)
	for _, c := range []struct {
		in   isa.Instruction
		want string
	}{
		{isa.Instruction{Op: isa.MOV, Src: mem, Dst: mem}, "movq: both operands cannot be memory"},
		{isa.Instruction{Op: isa.ADD, Src: rax, Dst: isa.ImmOp(1)}, "addq: destination cannot be an immediate"},
		{isa.Instruction{Op: isa.LEA, Src: rax, Dst: rax}, "leaq needs a memory source"},
		{isa.Instruction{Op: isa.PUSH, Src: mem}, "pushq: a memory operand would be a second data address"},
		{isa.Instruction{Op: isa.POP, Dst: isa.RegOp(isa.RSP)}, "popq %rsp"},
		{isa.Instruction{Op: isa.DIV, Dst: isa.ImmOp(3)}, "divq: operand cannot be an immediate"},
		{isa.Instruction{Op: isa.SETcc, Cond: isa.CondLE, Dst: isa.ImmOp(0)}, "setle: operand cannot be an immediate"},
		{isa.Instruction{Op: isa.Jcc, Cond: isa.CondNE}, "jne needs a label target"},
		{isa.Instruction{Op: isa.SUB, Dst: rax}, "subq needs two operands"},
		{isa.Instruction{Op: isa.NEG}, "negq needs one operand"},
	} {
		b := NewBuilder()
		b.Label("f")
		b.Emit(c.in)
		b.Label("f") // a later error does not replace the first
		_, err := b.Finish()
		if err == nil || !strings.HasPrefix(err.Error(), "asm: "+c.want) {
			t.Errorf("%v: err = %v, want %q", c.in, err, "asm: "+c.want)
		}
	}
	b := NewBuilder()
	b.Emit(isa.Instruction{Op: isa.CALL, Label: "nowhere"})
	if _, err := b.Finish(); err == nil || err.Error() != `asm: undefined label "nowhere"` {
		t.Errorf("a call of nowhere: err = %v", err)
	}
}
