package emu

import (
	"testing"
	"testing/quick"

	"repro/internal/analytic"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/progs"
	"repro/internal/trace"
)

func run(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runRecorded runs prog to completion, keeping a copy of every record the
// trace hook sees.
func runRecorded(t *testing.T, prog *isa.Program) ([]trace.Record, *CPU) {
	t.Helper()
	c := New(prog)
	var recs []trace.Record
	c.TraceHook = func(r *trace.Record) { recs = append(recs, *r) }
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return recs, c
}

func TestMovAndALU(t *testing.T) {
	c := run(t, `
main:   movq $10, %rax
        movq $3, %rbx
        addq %rbx, %rax     # 13
        subq $1, %rax       # 12
        imulq %rbx, %rax    # 36
        shlq $2, %rax       # 144
        shrq %rax           # 72
        hlt
`)
	if got := c.Result(); got != 72 {
		t.Errorf("result = %d, want 72", got)
	}
}

func TestMemoryOps(t *testing.T) {
	c := run(t, `
main:   movq $t, %rdi
        movq (%rdi), %rax
        addq 8(%rdi), %rax
        movq %rax, 16(%rdi)
        movq $2, %rcx
        movq t(,%rcx,8), %rbx
        hlt
.data
t:      .quad 100, 23, 0
`)
	if got := c.Result(); got != 123 {
		t.Errorf("rax = %d, want 123", got)
	}
	if got := c.Regs[isa.RBX]; got != 123 {
		t.Errorf("rbx (read back via indexed addressing) = %d, want 123", got)
	}
}

func TestPushPop(t *testing.T) {
	c := run(t, `
main:   movq $7, %rax
        pushq %rax
        movq $0, %rax
        popq %rbx
        hlt
`)
	if c.Regs[isa.RBX] != 7 {
		t.Errorf("rbx = %d, want 7", c.Regs[isa.RBX])
	}
	if c.Regs[isa.RSP] != isa.StackTop {
		t.Errorf("rsp = %#x, want %#x", c.Regs[isa.RSP], isa.StackTop)
	}
}

func TestCallRet(t *testing.T) {
	c := run(t, `
_start: movq $5, %rdi
        call double
        hlt
double: movq %rdi, %rax
        addq %rdi, %rax
        ret
`)
	if c.Result() != 10 {
		t.Errorf("result = %d, want 10", c.Result())
	}
}

func TestConditionals(t *testing.T) {
	// Unsigned and signed comparisons through all jcc forms.
	c := run(t, `
main:   movq $0, %rax
        movq $-1, %rbx       # unsigned max
        cmpq $1, %rbx
        ja .ok1              # unsigned: -1 > 1
        hlt
.ok1:   addq $1, %rax
        cmpq $1, %rbx
        jl .ok2              # signed: -1 < 1
        hlt
.ok2:   addq $1, %rax
        movq $5, %rcx
        cmpq $5, %rcx
        je .ok3
        hlt
.ok3:   addq $1, %rax
        cmpq $6, %rcx
        jne .ok4
        hlt
.ok4:   addq $1, %rax
        hlt
`)
	if c.Result() != 4 {
		t.Errorf("result = %d, want 4", c.Result())
	}
}

func TestSetcc(t *testing.T) {
	c := run(t, `
main:   movq $3, %rax
        cmpq $5, %rax
        setb %rbx           # 3 < 5 unsigned -> 1
        setg %rcx           # 3 > 5 signed -> 0
        hlt
`)
	if c.Regs[isa.RBX] != 1 || c.Regs[isa.RCX] != 0 {
		t.Errorf("setb=%d setg=%d, want 1 0", c.Regs[isa.RBX], c.Regs[isa.RCX])
	}
}

func TestDivMod(t *testing.T) {
	c := run(t, `
main:   movq $17, %rax
        movq $0, %rdx
        movq $5, %rcx
        divq %rcx
        hlt
`)
	if c.Regs[isa.RAX] != 3 || c.Regs[isa.RDX] != 2 {
		t.Errorf("17/5: q=%d r=%d, want 3 2", c.Regs[isa.RAX], c.Regs[isa.RDX])
	}
}

func TestIdiv(t *testing.T) {
	c := run(t, `
main:   movq $-17, %rax
        cqto
        movq $5, %rcx
        idivq %rcx
        hlt
`)
	if int64(c.Regs[isa.RAX]) != -3 || int64(c.Regs[isa.RDX]) != -2 {
		t.Errorf("-17/5: q=%d r=%d, want -3 -2", int64(c.Regs[isa.RAX]), int64(c.Regs[isa.RDX]))
	}
}

func TestDivByZeroFaults(t *testing.T) {
	p, err := asm.Assemble(`
main:   movq $1, %rax
        movq $0, %rdx
        movq $0, %rcx
        divq %rcx
        hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(p); err == nil {
		t.Error("division by zero did not fault")
	}
}

func TestStepLimit(t *testing.T) {
	p, err := asm.Assemble("main: jmp main\n")
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	c.MaxSteps = 1000
	if _, err := c.Run(); err == nil {
		t.Error("infinite loop did not hit step limit")
	}
}

func TestFetchOutOfText(t *testing.T) {
	p, err := asm.Assemble("main: nop\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProgram(p); err == nil {
		t.Error("running off the end of text did not fault")
	}
}

// TestSumCall reproduces the paper's Fig. 3: the sequential run of sum(t,5)
// executes exactly 59 instructions inside sum.
func TestSumCall(t *testing.T) {
	vec := progs.Vector(5)
	p, err := progs.BuildSumCall(vec)
	if err != nil {
		t.Fatal(err)
	}
	recs, c := runRecorded(t, p)
	if c.Result() != progs.VectorSum(5) {
		t.Errorf("sum = %d, want %d", c.Result(), progs.VectorSum(5))
	}
	sumStart := p.Labels["sum"]
	sumEnd := sumStart + 25
	body := 0
	for _, r := range recs {
		if ip := r.IP; ip >= sumStart && ip < sumEnd {
			body++
		}
	}
	if body != 59 {
		t.Errorf("sum body trace = %d instructions, want 59 (paper Fig. 3)", body)
	}
}

// TestSumFork reproduces the paper's Fig. 6: the fork run of sum(t,5)
// executes exactly 45 instructions inside sum, and computes the same result.
func TestSumFork(t *testing.T) {
	vec := progs.Vector(5)
	p, err := progs.BuildSumFork(vec)
	if err != nil {
		t.Fatal(err)
	}
	recs, c := runRecorded(t, p)
	if c.Result() != progs.VectorSum(5) {
		t.Errorf("sum = %d, want %d", c.Result(), progs.VectorSum(5))
	}
	sumStart := p.Labels["sum"]
	sumEnd := sumStart + 19
	body := 0
	for _, r := range recs {
		if ip := r.IP; ip >= sumStart && ip < sumEnd {
			body++
		}
	}
	if body != 45 {
		t.Errorf("sum body trace = %d instructions, want 45 (paper Fig. 6)", body)
	}
}

// TestSumForkInstructionFormula checks the paper's Section 5 closed form:
// the fork run of sum over 5·2ⁿ elements is 45·2ⁿ + 14·(2ⁿ−1) instructions.
func TestSumForkInstructionFormula(t *testing.T) {
	for n := 0; n <= 6; n++ {
		size := 5 << uint(n)
		vec := progs.Vector(size)
		p, err := progs.BuildSumFork(vec)
		if err != nil {
			t.Fatal(err)
		}
		recs, c := runRecorded(t, p)
		if c.Result() != progs.VectorSum(size) {
			t.Errorf("n=%d: sum = %d, want %d", n, c.Result(), progs.VectorSum(size))
		}
		sumStart := p.Labels["sum"]
		body := 0
		for _, r := range recs {
			if ip := r.IP; ip >= sumStart && ip < sumStart+19 {
				body++
			}
		}
		if want := analytic.Instructions(n); int64(body) != want {
			t.Errorf("n=%d (%d elements): %d instructions, want %d", n, size, body, want)
		}
	}
}

// TestCallForkEquivalence: the call and fork versions compute identical
// results for many sizes, including non-powers-of-two.
func TestCallForkEquivalence(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 31, 64, 100, 127} {
		vec := progs.Vector(size)
		pc, err := progs.BuildSumCall(vec)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := RunProgram(pc)
		if err != nil {
			t.Fatalf("size %d call: %v", size, err)
		}
		pf, err := progs.BuildSumFork(vec)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := RunProgram(pf)
		if err != nil {
			t.Fatalf("size %d fork: %v", size, err)
		}
		want := progs.VectorSum(size)
		if cc.Result() != want {
			t.Errorf("size %d: call result %d, want %d", size, cc.Result(), want)
		}
		if cf.Result() != want {
			t.Errorf("size %d: fork result %d, want %d", size, cf.Result(), want)
		}
	}
}

func TestFibForkAndCall(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 10, 15} {
		pf, err := progs.BuildFibFork(n)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := RunProgram(pf)
		if err != nil {
			t.Fatalf("fib fork %d: %v", n, err)
		}
		if cf.Result() != progs.Fib(n) {
			t.Errorf("fib fork(%d) = %d, want %d", n, cf.Result(), progs.Fib(n))
		}
		pc, err := progs.BuildFibCall(n)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := RunProgram(pc)
		if err != nil {
			t.Fatalf("fib call %d: %v", n, err)
		}
		if cc.Result() != progs.Fib(n) {
			t.Errorf("fib call(%d) = %d, want %d", n, cc.Result(), progs.Fib(n))
		}
	}
}

func TestMaxFork(t *testing.T) {
	vecs := [][]uint64{
		{5},
		{5, 9},
		{9, 5},
		{1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1},
		{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3},
	}
	for _, v := range vecs {
		p, err := progs.BuildMaxFork(v)
		if err != nil {
			t.Fatal(err)
		}
		c, err := RunProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		for _, x := range v {
			if x > want {
				want = x
			}
		}
		if c.Result() != want {
			t.Errorf("max(%v) = %d, want %d", v, c.Result(), want)
		}
	}
}

// TestForkRestoresNonVolatiles: the continuation after a fork subtree sees
// the non-volatile registers as they were at the fork, while volatile rax
// carries the callee's result.
func TestForkRestoresNonVolatiles(t *testing.T) {
	c := run(t, `
_start: movq $111, %rbx
        movq $222, %r12
        fork clobber
        # continuation: rbx/r12 restored, rax from callee
        movq %rbx, %rcx
        hlt
clobber: movq $999, %rbx
        movq $888, %r12
        movq $42, %rax
        endfork
`)
	if c.Regs[isa.RAX] != 42 {
		t.Errorf("rax = %d, want 42 (callee result)", c.Regs[isa.RAX])
	}
	if c.Regs[isa.RCX] != 111 {
		t.Errorf("rbx seen by continuation = %d, want 111", c.Regs[isa.RCX])
	}
	if c.Regs[isa.R12] != 222 {
		t.Errorf("r12 = %d, want 222", c.Regs[isa.R12])
	}
}

func TestTraceCapture(t *testing.T) {
	p, err := asm.Assemble(`
main:   movq $t, %rdi
        movq (%rdi), %rax
        pushq %rax
        popq %rbx
        cmpq $1, %rbx
        je .done
        nop
.done:  hlt
.data
t:      .quad 1
`)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := runRecorded(t, p)
	// movq $t,%rdi ; movq (%rdi),%rax ; pushq ; popq ; cmpq ; je ; hlt = 7
	if len(recs) != 7 {
		t.Fatalf("trace length = %d, want 7", len(recs))
	}
	// Load record has a memory read at t.
	ld := recs[1]
	if !ld.HasLoad || ld.Load != isa.DataBase || ld.HasStore {
		t.Errorf("load record = %+v", ld)
	}
	// Push writes below the stack top.
	ps := recs[2]
	if !ps.HasStore || ps.Store != isa.StackTop-8 || ps.HasLoad {
		t.Errorf("push record = %+v", ps)
	}
	// Pop reads the same slot.
	pp := recs[3]
	if !pp.HasLoad || pp.Load != isa.StackTop-8 || pp.HasStore {
		t.Errorf("pop record = %+v", pp)
	}
	// je taken.
	if !recs[5].Taken {
		t.Error("je should be taken")
	}
	stats := (&trace.Trace{Records: recs}).ComputeStats()
	if stats.Instructions != 7 || stats.Loads != 2 || stats.Stores != 1 || stats.Branches != 1 || stats.Taken != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestTraceCallLevel(t *testing.T) {
	p, err := asm.Assemble(`
_start: call f
        hlt
f:      call g
        ret
g:      ret
`)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := runRecorded(t, p)
	// call f (0), call g (1), ret (2), ret (1), hlt (0)
	wantLevels := []int32{0, 1, 2, 1, 0}
	if len(recs) != len(wantLevels) {
		t.Fatalf("trace length = %d, want %d", len(recs), len(wantLevels))
	}
	for i, w := range wantLevels {
		if recs[i].CallLevel != w {
			t.Errorf("record %d level = %d, want %d", i, recs[i].CallLevel, w)
		}
	}
}

// TestMemoryQuick: paged memory behaves like a flat map for word accesses,
// including page-crossing unaligned addresses.
func TestMemoryQuick(t *testing.T) {
	f := func(addrs []uint64, vals []uint64) bool {
		m := NewMemory()
		ref := make(map[uint64]byte)
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := addrs[i] % (1 << 20)
			m.WriteU64(a, vals[i])
			for j := uint64(0); j < 8; j++ {
				ref[a+j] = byte(vals[i] >> (8 * j))
			}
		}
		for i := 0; i < n; i++ {
			a := addrs[i] % (1 << 20)
			var want uint64
			for j := uint64(0); j < 8; j++ {
				want |= uint64(ref[a+j]) << (8 * j)
			}
			if m.ReadU64(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCopyInMatchesByteStores: CopyIn, which copies a page at a time, leaves
// the memory a StoreByte per byte leaves — same pages mapped, same words read.
func TestCopyInMatchesByteStores(t *testing.T) {
	for _, tc := range []struct {
		addr uint64
		n    int
	}{
		{isa.DataBase, 0},                  // empty: maps nothing
		{isa.DataBase + 3, 5},              // unaligned, inside a word
		{isa.DataBase + pageSize - 3, 6},   // straddles a page inside a word
		{isa.DataBase + 1, 3*pageSize + 7}, // unaligned start, several pages
		{isa.DataBase, 2 * pageSize},       // whole pages exactly
		{isa.DataBase + pageSize - 1, 1},   // last byte of a page
	} {
		buf := make([]byte, tc.n)
		for i := range buf {
			buf[i] = byte(i*7 + 1)
		}
		got, want := NewMemory(), NewMemory()
		got.CopyIn(tc.addr, buf)
		for i, b := range buf {
			want.StoreByte(tc.addr+uint64(i), b)
		}
		if len(got.pages) != len(want.pages) {
			t.Errorf("CopyIn(%#x, %d bytes) maps %d pages, byte stores %d", tc.addr, tc.n, len(got.pages), len(want.pages))
		}
		for pn, p := range want.pages {
			if q := got.pages[pn]; q == nil || *q != *p {
				t.Errorf("CopyIn(%#x, %d bytes): page %#x differs from byte stores", tc.addr, tc.n, pn)
			}
		}
		for a := tc.addr &^ 7; a < tc.addr+uint64(tc.n)+8; a += 8 {
			if g, w := got.ReadU64(a), want.ReadU64(a); g != w {
				t.Errorf("CopyIn(%#x, %d bytes): word at %#x reads %#x, want %#x", tc.addr, tc.n, a, g, w)
			}
		}
	}
}
