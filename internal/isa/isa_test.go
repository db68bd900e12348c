package isa

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRegNames(t *testing.T) {
	cases := map[Reg]string{
		RAX: "rax", RBX: "rbx", RCX: "rcx", RDX: "rdx",
		RSP: "rsp", RBP: "rbp", RSI: "rsi", RDI: "rdi",
		R8: "r8", R15: "r15", Flags: "flags",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
		back, ok := ParseReg(want)
		if !ok || back != r {
			t.Errorf("ParseReg(%q) = %v, %v; want %v, true", want, back, ok, r)
		}
	}
	if _, ok := ParseReg("xmm0"); ok {
		t.Error("ParseReg accepted xmm0")
	}
}

func TestCondEval(t *testing.T) {
	type tc struct {
		a, b uint64 // flags from a - b
	}
	cases := []tc{
		{5, 5}, {5, 2}, {2, 5}, {0, 1}, {1, 0},
		{^uint64(0), 1}, {1, ^uint64(0)},
		{1 << 63, 1}, {0x7fffffffffffffff, ^uint64(0)},
	}
	sub := func(a, b uint64) FlagsVal {
		r := a - b
		var f FlagsVal
		if r == 0 {
			f |= FlagZ
		}
		if int64(r) < 0 {
			f |= FlagS
		}
		if a < b {
			f |= FlagC
		}
		if (int64(a) < 0) != (int64(b) < 0) && (int64(r) < 0) != (int64(a) < 0) {
			f |= FlagO
		}
		return f
	}
	for _, c := range cases {
		f := sub(c.a, c.b)
		checks := map[Cond]bool{
			CondE:  c.a == c.b,
			CondNE: c.a != c.b,
			CondA:  c.a > c.b,
			CondAE: c.a >= c.b,
			CondB:  c.a < c.b,
			CondBE: c.a <= c.b,
			CondG:  int64(c.a) > int64(c.b),
			CondGE: int64(c.a) >= int64(c.b),
			CondL:  int64(c.a) < int64(c.b),
			CondLE: int64(c.a) <= int64(c.b),
		}
		for cc, want := range checks {
			if got := cc.Eval(f); got != want {
				t.Errorf("cmp(%d,%d): cond %s = %v, want %v", c.a, c.b, cc, got, want)
			}
		}
	}
}

func TestCondEvalQuick(t *testing.T) {
	// Property: every unsigned/signed comparison condition agrees with the
	// direct Go comparison, for random operands.
	f := func(a, b uint64) bool {
		r := a - b
		var fl FlagsVal
		if r == 0 {
			fl |= FlagZ
		}
		if int64(r) < 0 {
			fl |= FlagS
		}
		if a < b {
			fl |= FlagC
		}
		if (int64(a) < 0) != (int64(b) < 0) && (int64(r) < 0) != (int64(a) < 0) {
			fl |= FlagO
		}
		return CondA.Eval(fl) == (a > b) &&
			CondB.Eval(fl) == (a < b) &&
			CondAE.Eval(fl) == (a >= b) &&
			CondBE.Eval(fl) == (a <= b) &&
			CondG.Eval(fl) == (int64(a) > int64(b)) &&
			CondL.Eval(fl) == (int64(a) < int64(b)) &&
			CondGE.Eval(fl) == (int64(a) >= int64(b)) &&
			CondLE.Eval(fl) == (int64(a) <= int64(b)) &&
			CondE.Eval(fl) == (a == b) &&
			CondNE.Eval(fl) == (a != b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		o    Operand
		want string
	}{
		{RegOp(RAX), "%rax"},
		{ImmOp(42), "$42"},
		{ImmOp(-8), "$-8"},
		{MemBase(0, RSP), "(%rsp)"},
		{MemBase(8, RDI), "8(%rdi)"},
		{MemBase(-16, RBP), "-16(%rbp)"},
		{MemOp(0, RDI, RSI, 8), "(%rdi,%rsi,8)"},
		{MemOp(24, RAX, RCX, 4), "24(%rax,%rcx,4)"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("Operand.String() = %q, want %q", got, c.want)
		}
	}
}

func TestInstructionString(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: MOV, Src: MemBase(0, RDI), Dst: RegOp(RAX)}, "movq (%rdi), %rax"},
		{Instruction{Op: CMP, Src: ImmOp(2), Dst: RegOp(RSI)}, "cmpq $2, %rsi"},
		{Instruction{Op: Jcc, Cond: CondA, Label: ".L2"}, "ja .L2"},
		{Instruction{Op: RET}, "ret"},
		{Instruction{Op: FORK, Label: "sum"}, "fork sum"},
		{Instruction{Op: ENDFORK}, "endfork"},
		{Instruction{Op: PUSH, Src: RegOp(RBX)}, "pushq %rbx"},
		{Instruction{Op: POP, Dst: RegOp(RBX)}, "popq %rbx"},
		{Instruction{Op: LEA, Src: MemOp(0, RDI, RSI, 8), Dst: RegOp(RDI)}, "leaq (%rdi,%rsi,8), %rdi"},
		{Instruction{Op: SETcc, Cond: CondE, Dst: RegOp(RAX)}, "sete %rax"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Instruction.String() = %q, want %q", got, c.want)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		in   Instruction
		want Class
	}{
		{Instruction{Op: ADD, Src: RegOp(RBX), Dst: RegOp(RAX)}, ClassSimple},
		{Instruction{Op: ADD, Src: MemBase(0, RSP), Dst: RegOp(RAX)}, ClassLoad},
		{Instruction{Op: MOV, Src: RegOp(RAX), Dst: MemBase(0, RSP)}, ClassStore},
		{Instruction{Op: PUSH, Src: RegOp(RBX)}, ClassStore},
		{Instruction{Op: POP, Dst: RegOp(RBX)}, ClassLoad},
		{Instruction{Op: IMUL, Src: RegOp(RBX), Dst: RegOp(RAX)}, ClassComplex},
		{Instruction{Op: DIV, Dst: RegOp(RCX)}, ClassComplex},
		{Instruction{Op: Jcc, Cond: CondA}, ClassControl},
		{Instruction{Op: FORK}, ClassControl},
		{Instruction{Op: ENDFORK}, ClassControl},
		{Instruction{Op: LEA, Src: MemOp(0, RDI, RSI, 8), Dst: RegOp(RDI)}, ClassSimple},
	}
	for _, c := range cases {
		if got := c.in.Classify(); got != c.want {
			t.Errorf("%s: Classify() = %d, want %d", c.in.String(), got, c.want)
		}
	}
}

func TestRegReadsWrites(t *testing.T) {
	has := func(rs []Reg, r Reg) bool {
		for _, x := range rs {
			if x == r {
				return true
			}
		}
		return false
	}
	// cmpq $2, %rsi reads rsi, writes flags.
	cmp := Instruction{Op: CMP, Src: ImmOp(2), Dst: RegOp(RSI)}
	if r := cmp.RegReads(nil); !has(r, RSI) || has(r, Flags) {
		t.Errorf("cmp reads = %v", r)
	}
	if w := cmp.RegWrites(nil); !has(w, Flags) || len(w) != 1 {
		t.Errorf("cmp writes = %v", w)
	}
	// ja reads flags, writes nothing.
	ja := Instruction{Op: Jcc, Cond: CondA}
	if r := ja.RegReads(nil); !has(r, Flags) {
		t.Errorf("ja reads = %v", r)
	}
	if w := ja.RegWrites(nil); len(w) != 0 {
		t.Errorf("ja writes = %v", w)
	}
	// leaq (%rdi,%rsi,8), %rdi reads rdi+rsi, writes rdi, no flags.
	lea := Instruction{Op: LEA, Src: MemOp(0, RDI, RSI, 8), Dst: RegOp(RDI)}
	if r := lea.RegReads(nil); !has(r, RDI) || !has(r, RSI) {
		t.Errorf("lea reads = %v", r)
	}
	if w := lea.RegWrites(nil); !has(w, RDI) || has(w, Flags) {
		t.Errorf("lea writes = %v", w)
	}
	// pushq %rbx reads rsp+rbx, writes rsp, stores memory.
	push := Instruction{Op: PUSH, Src: RegOp(RBX)}
	if r := push.RegReads(nil); !has(r, RSP) || !has(r, RBX) {
		t.Errorf("push reads = %v", r)
	}
	if w := push.RegWrites(nil); !has(w, RSP) {
		t.Errorf("push writes = %v", w)
	}
	if _, ok := push.MemWrite(); !ok {
		t.Error("push should write memory")
	}
	// popq %rbx reads rsp+mem, writes rsp and rbx.
	pop := Instruction{Op: POP, Dst: RegOp(RBX)}
	if w := pop.RegWrites(nil); !has(w, RSP) || !has(w, RBX) {
		t.Errorf("pop writes = %v", w)
	}
	if _, ok := pop.MemRead(); !ok {
		t.Error("pop should read memory")
	}
	// divq %rcx reads rax,rdx,rcx; writes rax,rdx.
	div := Instruction{Op: DIV, Dst: RegOp(RCX)}
	if r := div.RegReads(nil); !has(r, RAX) || !has(r, RDX) || !has(r, RCX) {
		t.Errorf("div reads = %v", r)
	}
	if w := div.RegWrites(nil); !has(w, RAX) || !has(w, RDX) {
		t.Errorf("div writes = %v", w)
	}
	// addq 0(%rsp), %rax is a load that also reads rax.
	addm := Instruction{Op: ADD, Src: MemBase(0, RSP), Dst: RegOp(RAX)}
	if r := addm.RegReads(nil); !has(r, RSP) || !has(r, RAX) {
		t.Errorf("addq mem reads = %v", r)
	}
	if _, ok := addm.MemRead(); !ok {
		t.Error("addq 0(%rsp), %rax should read memory")
	}
	// movq %rax, 0(%rsp) stores but does not load.
	st := Instruction{Op: MOV, Src: RegOp(RAX), Dst: MemBase(0, RSP)}
	if _, ok := st.MemRead(); ok {
		t.Error("store mov should not read memory")
	}
	if _, ok := st.MemWrite(); !ok {
		t.Error("store mov should write memory")
	}
	// addq %rbx, 0(%rsp) is read-modify-write memory.
	rmw := Instruction{Op: ADD, Src: RegOp(RBX), Dst: MemBase(0, RSP)}
	if _, ok := rmw.MemRead(); !ok {
		t.Error("rmw add should read memory")
	}
	if _, ok := rmw.MemWrite(); !ok {
		t.Error("rmw add should write memory")
	}
}

// TestFootprintIsCompact: every traced step and every dynamic instruction on
// the machine reads a footprint row, so a row stays small (56 B today).
func TestFootprintIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(Footprint{}); got > 64 {
		t.Errorf("Footprint is %d bytes, budget 64", got)
	}
}

// encodeFixture is a small program with every operand kind in both operand
// positions, symbolic names on an instruction and an operand, and both
// symbol tables filled.
func encodeFixture() *Program {
	p := NewProgram()
	p.Text = []Instruction{
		{Op: ADD, Src: RegOp(RBX), Dst: MemOp(16, RSP, RCX, 8)},
		{Op: MOV, Src: Operand{Kind: KindMem, Imm: int64(DataBase), Base: NoReg, Index: RSI, Scale: 8, Sym: "t"}, Dst: RegOp(RAX)},
		{Op: CMP, Src: ImmOp(5), Dst: ImmOp(-7)},
		{Op: Jcc, Cond: CondNE, Target: 0, Label: ".L0"},
		{Op: HLT},
	}
	p.Data = []byte{1, 2, 3, 4}
	p.Labels[".L0"] = 0
	p.Labels["main"] = 1
	p.DataSyms["t"] = DataBase
	p.Entry = 1
	return p
}

// TestEncodeCoversEveryField: Encode is the program part of the sweep cache
// key, so a change to any field that decides what the program computes must
// change its bytes, and a change to a name alone must not.
func TestEncodeCoversEveryField(t *testing.T) {
	base := encodeFixture().Encode()
	if again := encodeFixture().Encode(); !bytes.Equal(base, again) {
		t.Fatal("Encode is not deterministic")
	}
	mutations := map[string]func(p *Program){
		"Op":                   func(p *Program) { p.Text[0].Op = SUB },
		"Cond":                 func(p *Program) { p.Text[3].Cond = CondE },
		"Target":               func(p *Program) { p.Text[3].Target = 2 },
		"Entry":                func(p *Program) { p.Entry = 0 },
		"data byte":            func(p *Program) { p.Data[2] ^= 0x40 },
		"label value":          func(p *Program) { p.Labels["main"] = 2 },
		"data-symbol value":    func(p *Program) { p.DataSyms["t"] += 8 },
		"Src.Kind":             func(p *Program) { p.Text[0].Src.Kind = KindImm },
		"Src.Reg":              func(p *Program) { p.Text[0].Src.Reg = RDX },
		"Src.Imm (immediate)":  func(p *Program) { p.Text[2].Src.Imm = 6 },
		"Src.Imm (memory)":     func(p *Program) { p.Text[1].Src.Imm += 8 },
		"Src.Base":             func(p *Program) { p.Text[1].Src.Base = RBP },
		"Src.Index":            func(p *Program) { p.Text[1].Src.Index = RDI },
		"Src.Scale":            func(p *Program) { p.Text[1].Src.Scale = 4 },
		"Dst.Kind":             func(p *Program) { p.Text[1].Dst.Kind = KindNone },
		"Dst.Reg":              func(p *Program) { p.Text[1].Dst.Reg = R8 },
		"Dst.Imm (immediate)":  func(p *Program) { p.Text[2].Dst.Imm = 7 },
		"Dst.Imm (memory)":     func(p *Program) { p.Text[0].Dst.Imm = 24 },
		"Dst.Base":             func(p *Program) { p.Text[0].Dst.Base = RBP },
		"Dst.Index":            func(p *Program) { p.Text[0].Dst.Index = NoReg },
		"Dst.Scale":            func(p *Program) { p.Text[0].Dst.Scale = 2 },
		"an instruction added": func(p *Program) { p.Text = append(p.Text, Instruction{Op: NOP}) },
	}
	for name, mutate := range mutations {
		p := encodeFixture()
		mutate(p)
		if bytes.Equal(p.Encode(), base) {
			t.Errorf("changing %s leaves the encoding unchanged", name)
		}
	}
	names := map[string]func(p *Program){
		"Label":   func(p *Program) { p.Text[3].Label = ".Lother" },
		"Src.Sym": func(p *Program) { p.Text[1].Src.Sym = "u" },
		"Dst.Sym": func(p *Program) { p.Text[0].Dst.Sym = "frame" },
	}
	for name, mutate := range names {
		p := encodeFixture()
		mutate(p)
		if !bytes.Equal(p.Encode(), base) {
			t.Errorf("changing %s changes the encoding", name)
		}
	}
}

// TestALU pins the one definition of the integer semantics that the emulator
// and both evaluating stages of the machine share. Expected values are
// written out by hand (not recomputed with the implementation's formulas).
func TestALU(t *testing.T) {
	const (
		min64 = uint64(1) << 63 // most negative int64
		max64 = min64 - 1       // most positive int64
		ones  = ^uint64(0)      // -1, and the largest uint64
		none  = FlagsVal(0)
	)
	cases := []struct {
		name  string
		op    Op
		a, b  uint64
		r     uint64
		fl    FlagsVal
		wrote bool
	}{
		// ADD: carry at 2^64, signed overflow at 2^63.
		{"add plain", ADD, 2, 3, 5, none, true},
		{"add carry out to zero", ADD, ones, 1, 0, FlagZ | FlagC, true},
		{"add carry no overflow", ADD, ones, 2, 1, FlagC, true},
		{"add overflow to min", ADD, max64, 1, min64, FlagS | FlagO, true},
		{"add min+min", ADD, min64, min64, 0, FlagZ | FlagC | FlagO, true},
		{"add neg+pos no overflow", ADD, min64, max64, ones, FlagS, true},
		// SUB: borrow when a < b unsigned, overflow when signs differ.
		{"sub equal", SUB, 7, 7, 0, FlagZ, true},
		{"sub borrow", SUB, 0, 1, ones, FlagS | FlagC, true},
		{"sub overflow from min", SUB, min64, 1, max64, FlagO, true},
		{"sub max-(-1) overflows", SUB, max64, ones, min64, FlagS | FlagC | FlagO, true},
		{"sub 0-min", SUB, 0, min64, min64, FlagS | FlagC | FlagO, true},
		// CMP and TEST are SUB and AND; callers keep only the flags.
		{"cmp below", CMP, 3, 5, ones - 1, FlagS | FlagC, true},
		{"cmp signed less", CMP, min64, 1, max64, FlagO, true},
		{"test disjoint", TEST, 0xf0, 0x0f, 0, FlagZ, true},
		{"test sign", TEST, ones, min64, min64, FlagS, true},
		// Logic: carry and overflow always cleared.
		{"and", AND, 0xff00, 0x0ff0, 0x0f00, none, true},
		{"or sign", OR, min64, 1, min64 | 1, FlagS, true},
		{"xor self", XOR, 0xabc, 0xabc, 0, FlagZ, true},
		// Shifts: the count is masked to its low 6 bits.
		{"shl", SHL, 1, 63, min64, FlagS, true},
		{"shl count 64 is 0", SHL, 5, 64, 5, none, true},
		{"shl count 65 is 1", SHL, 5, 65, 10, none, true},
		{"shl count -1 is 63", SHL, 3, ones, min64, FlagS, true},
		{"shr logical", SHR, min64, 63, 1, none, true},
		{"shr count 64 is 0", SHR, min64, 64, min64, FlagS, true},
		{"sar arithmetic", SAR, min64, 63, ones, FlagS, true},
		{"sar count 127 is 63", SAR, max64, 127, 0, FlagZ, true},
		// IMUL wraps and leaves the flags alone; so does NOT.
		{"imul", IMUL, 6, 7, 42, none, false},
		{"imul negative", IMUL, ones, 5, ones - 4, none, false},
		{"imul wraps", IMUL, min64, 2, 0, none, false},
		{"not", NOT, 0, 99, ones, none, false},
		// One-operand forms ignore b.
		{"neg zero", NEG, 0, 99, 0, FlagZ, true},
		{"neg one", NEG, 1, 99, ones, FlagS | FlagC, true},
		{"neg min overflows", NEG, min64, 99, min64, FlagS | FlagC | FlagO, true},
		{"inc wraps", INC, ones, 99, 0, FlagZ | FlagC, true},
		{"inc overflow", INC, max64, 99, min64, FlagS | FlagO, true},
		{"dec borrow", DEC, 0, 99, ones, FlagS | FlagC, true},
		{"dec overflow", DEC, min64, 99, max64, FlagO, true},
	}
	for _, c := range cases {
		r, fl, wrote := ALU(c.op, c.a, c.b)
		if r != c.r || wrote != c.wrote || (wrote && fl != c.fl) {
			t.Errorf("%s: ALU(%s, %#x, %#x) = %#x, flags %04b, writes %v; want %#x, flags %04b, writes %v",
				c.name, c.op, c.a, c.b, r, fl, wrote, c.r, c.fl, c.wrote)
		}
	}

	// The flags drive the conditions the way x86 defines them.
	if _, fl, _ := ALU(CMP, min64, 1); !CondL.Eval(fl) || !CondA.Eval(fl) {
		t.Errorf("cmp min64, 1: want signed-less and unsigned-above, flags %04b", fl)
	}

	defer func() {
		if recover() == nil {
			t.Error("ALU accepted a non-ALU opcode")
		}
	}()
	ALU(JMP, 0, 0)
}

func TestDivide(t *testing.T) {
	const ones = ^uint64(0)
	cases := []struct {
		name        string
		op          Op
		rax, rdx, d uint64
		quot, rem   uint64
		err         error
	}{
		{name: "div", op: DIV, rax: 17, d: 5, quot: 3, rem: 2},
		{name: "div is unsigned", op: DIV, rax: ones, d: 2, quot: ones >> 1, rem: 1},
		{name: "div by zero", op: DIV, rax: 1, d: 0, err: ErrDivideByZero},
		{name: "div by zero wins over rdx", op: DIV, rax: 1, rdx: 1, d: 0, err: ErrDivideByZero},
		{name: "div non-zero rdx", op: DIV, rax: 1, rdx: 1, d: 3, err: ErrDivWideDividend},
		{name: "idiv", op: IDIV, rax: 17, d: 5, quot: 3, rem: 2},
		{name: "idiv truncates toward zero", op: IDIV, rax: ones - 16, rdx: ones, d: 5, quot: ones - 2, rem: ones - 1}, // -17/5 = -3 rem -2
		{name: "idiv negative divisor", op: IDIV, rax: 17, d: ones - 4, quot: ones - 2, rem: 2},                        // 17/-5 = -3 rem 2
		{name: "idiv by zero", op: IDIV, rax: 1, d: 0, err: ErrDivideByZero},
		{name: "idiv positive rax needs rdx 0", op: IDIV, rax: 17, rdx: ones, d: 5, err: ErrIdivWideDividend},
		{name: "idiv negative rax needs rdx -1", op: IDIV, rax: ones - 16, rdx: 0, d: 5, err: ErrIdivWideDividend},
	}
	for _, c := range cases {
		q, r, err := Divide(c.op, c.rax, c.rdx, c.d)
		if err != c.err || (err == nil && (q != c.quot || r != c.rem)) {
			t.Errorf("%s: Divide(%s, rax=%#x, rdx=%#x, %#x) = %#x, %#x, %v; want %#x, %#x, %v",
				c.name, c.op, c.rax, c.rdx, c.d, q, r, err, c.quot, c.rem, c.err)
		}
	}
}
