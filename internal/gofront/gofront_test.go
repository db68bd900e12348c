package gofront

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/minic"
)

// emulate runs a compiled program on the sequential emulator.
func emulate(t *testing.T, prog *isa.Program, in map[string][]uint64) uint64 {
	t.Helper()
	res, err := backend.NewEmulator().Run(prog, in, false)
	if err != nil {
		t.Fatalf("emulator: %v", err)
	}
	return res.RAX
}

// scan is the test harness: scan a kernel file, failing the test on error.
func scan(t *testing.T, src string) *Kernel {
	t.Helper()
	k, err := Scan("test.go", []byte(src))
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return k
}

// sumKernel is a minimal end-to-end kernel: one generated array, one const,
// helpers, signed and unsigned locals.
const sumKernel = `package kernels

//repro:array len=n gen=u32
var a []uint64

func add(x uint64, y uint64) uint64 {
	return x + y
}

//repro:kernel id=7 name=test/sum minn=2
//repro:const Half = n / 2
func sum() uint64 {
	s := uint64(0)
	for i := 0; i < N; i++ {
		s = add(s, a[i])
	}
	if N > 1 {
		s = s + Half
	}
	return s
}
`

func TestScanMetadata(t *testing.T) {
	k := scan(t, sumKernel)
	if k.ID != 7 || k.Name != "test/sum" || k.MinN != 2 {
		t.Errorf("metadata = %d %q %d", k.ID, k.Name, k.MinN)
	}
	if len(k.Arrays) != 1 || k.Arrays[0].Name != "a" || k.Arrays[0].Gen != GenU32 {
		t.Errorf("arrays = %+v", k.Arrays)
	}
	if len(k.Consts) != 1 || k.Consts[0].Name != "Half" {
		t.Errorf("consts = %+v", k.Consts)
	}
	if v, err := k.Consts[0].Expr.Eval(10); err != nil || v != 5 {
		t.Errorf("Half(10) = %d, %v", v, err)
	}
}

func TestSourceIsCanonicalAndFolded(t *testing.T) {
	k := scan(t, sumKernel)
	src, err := k.Source(8)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical-form fixpoint: the lowering must emit exactly what
	// minic.Format produces, because golden pins and cache-key stability
	// both ride on that surface.
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("lowered source does not parse: %v\n%s", err, src)
	}
	if canon := minic.Format(prog); canon != src {
		t.Errorf("lowered source is not Format-canonical:\n--- lowered\n%s\n--- canonical\n%s", src, canon)
	}
	for _, want := range []string{
		"unsigned long a[8];",      // len=n evaluated
		"unsigned long s = 0;",     // uint64(0) cast erased, type kept
		"for (long i = 0; i < 8",   // N folded to a literal
		"s = (s + 4);",             // Half folded (8/2)
		"s = add(s, a[i]);",        // helper call survives
		"unsigned long main(void)", // entry renamed
	} {
		if !strings.Contains(src, want) {
			t.Errorf("lowered source missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "Half") || strings.Contains(src, "N") {
		t.Errorf("annotation constants leaked into the lowering:\n%s", src)
	}
}

func TestAuthorLiteralsDoNotFold(t *testing.T) {
	k := scan(t, `package kernels

//repro:array len=n gen=u32
var a []uint64

//repro:kernel id=1 name=test/mix minn=2
func mix() uint64 {
	s := uint64(0)
	for i := 0; i < N; i++ {
		s = s*31 + a[i]
	}
	return s
}
`)
	src, err := k.Source(4)
	if err != nil {
		t.Fatal(err)
	}
	// 31 is an author literal with no annotation constant in the subtree:
	// it must stay symbolic even though both operands of N-ary folds would
	// be literal at this point.
	if !strings.Contains(src, "s = ((s * 31) + a[i]);") {
		t.Errorf("mix body changed:\n%s", src)
	}
}

func TestRefInterpretsLoweredAST(t *testing.T) {
	k := scan(t, sumKernel)
	in := map[string][]uint64{"a": {10, 20, 30, 40}}
	got, err := k.Ref(4, in)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(10 + 20 + 30 + 40 + 2); got != want {
		t.Errorf("Ref = %d, want %d", got, want)
	}
}

func TestRefMatchesEmulatedProgram(t *testing.T) {
	// The central invariant: interpreting the AST and emulating the
	// compiled program must agree, because they are the same tree.
	k := scan(t, `package kernels

//repro:array len=n gen=u32
var a []uint64

//repro:kernel id=1 name=test/semantics minn=4
func semantics() uint64 {
	s := uint64(0)
	neg := int64(0) - 3
	for i := 0; i < N; i++ {
		v := a[i] ^ uint64(neg>>1)
		if v%3 != 0 && v > 7 {
			s = s + (v << 65)
		} else {
			s = s*13 + v
		}
	}
	return s
}
`)
	src, err := k.Source(6)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := minic.Compile(src, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string][]uint64{"a": {3, 9, 250, 8, 21, 5}}
	want, err := k.Ref(6, in)
	if err != nil {
		t.Fatal(err)
	}
	res := emulate(t, prog, in)
	if res != want {
		t.Errorf("emulator %d, interpreter %d", res, want)
	}
}

func TestInterpSemantics(t *testing.T) {
	cases := []struct {
		name string
		body string
		want uint64
	}{
		// Shift counts mask to 6 bits, exactly like the hardware.
		{"shift-mask", "return uint64(1) << 65", 2},
		// Signed right shift is arithmetic; unsigned is logical.
		{"sar", "x := int64(0) - 8\nreturn uint64(x >> 2)", 0xfffffffffffffffe},
		{"shr", "x := uint64(0) - 8\nreturn (x >> 2)", 0x3ffffffffffffffe},
		// Signed vs unsigned comparison follows the operand types.
		{"signed-cmp", "x := int64(0) - 1\nif x < 1 {\n\treturn 1\n}\nreturn 0", 1},
		{"unsigned-cmp", "x := uint64(0) - 1\nif x < 1 {\n\treturn 1\n}\nreturn 0", 0},
		{"signed-cmps", "x := int64(0) - 1\ns := uint64(0)\nif x <= 1 {\n\ts = s + 1\n}\nif 1 > x {\n\ts = s + 2\n}\nif 1 >= x {\n\ts = s + 4\n}\nreturn s", 7},
		{"unsigned-cmps", "x := uint64(0) - 1\ns := uint64(0)\nif x <= 1 {\n\ts = s + 1\n}\nif 1 > x {\n\ts = s + 2\n}\nif 1 >= x {\n\ts = s + 4\n}\nreturn s", 0},
		// Short-circuit: the divide on the right must not execute.
		{"short-circuit", "z := uint64(0)\nif z != 0 && 10/z > 0 {\n\treturn 9\n}\nreturn 1", 1},
		// Compound assignment and while-lowered loops.
		{"compound", "s := uint64(1)\nfor s < 100 {\n\ts *= 3\n}\nreturn s", 243},
		{"break-continue", "s := uint64(0)\nfor i := 0; i < 100; i++ {\n\tif i == 5 {\n\t\tbreak\n\t}\n\tif i == 2 {\n\t\tcontinue\n\t}\n\ts = s + uint64(i)\n}\nreturn s", 0 + 1 + 3 + 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := scan(t, "package kernels\n\n//repro:kernel id=1 name=test/"+c.name+" minn=2\nfunc f() uint64 {\n\t"+
				strings.ReplaceAll(c.body, "\n", "\n\t")+"\n}\n")
			got, err := k.Ref(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

// TestInterpFaults pins the text of every fault a run of a lowered kernel
// can end in, and the inputs' faults before it starts.
func TestInterpFaults(t *testing.T) {
	cases := []struct {
		name, body string
		in         map[string][]uint64
		wantErr    string
	}{
		{"div-zero", "z := uint64(0)\nreturn 10 / z", nil, "interp: division by zero"},
		{"mod-zero", "z := int64(0)\nreturn uint64(10 % z)", nil, "interp: division by zero"},
		{"signed-overflow", "m := int64(0) - 9223372036854775807 - 1\nd := int64(0) - 1\nreturn uint64(m / d)", nil, "interp: signed division overflow"},
		{"oob", "a[N] = 1\nreturn 0", nil, `interp: index 4 out of range for "a" (4 words)`},
		{"oob-read", "return a[N+3]", nil, `interp: index 7 out of range for "a" (4 words)`},
		{"oob-compound", "i := 0 - 1\na[i] += 1\nreturn 0", nil, `interp: index 18446744073709551615 out of range for "a" (4 words)`},
		{"unknown-input", "return a[0]", map[string][]uint64{"b": {1}}, `interp: input for unknown symbol "b"`},
		{"input-overflow", "return a[0]", map[string][]uint64{"a": {1, 2, 3, 4, 5}}, `interp: 5 input words overflow "a" (4 words)`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := scan(t, "package kernels\n\n//repro:array len=n\nvar a []uint64\n\n//repro:kernel id=1 name=test/"+c.name+" minn=2\nfunc f() uint64 {\n\t"+
				strings.ReplaceAll(c.body, "\n", "\n\t")+"\n}\n")
			_, err := k.Ref(4, c.in)
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("err = %v, want %q", err, c.wantErr)
			}
		})
	}
	// The checker refuses a program without main; a checked one whose main
	// is renamed afterwards has none.
	for _, c := range []struct {
		name, src, wantErr string
		rename             bool
	}{
		{"no-main", "unsigned long main(void) { return 1; }", "interp: no main function", true},
		{"falls-off-the-end", "unsigned long main(void) { unsigned long x = 1; x = x + 1; }", "interp: main fell off the end without returning", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog, err := minic.Parse(c.src)
			if err == nil {
				err = minic.Check(prog)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.rename {
				prog.Functions[0].Name = "f"
			}
			if _, err := Interp(prog, nil); err == nil || err.Error() != c.wantErr {
				t.Errorf("err = %v, want %q", err, c.wantErr)
			}
		})
	}
}

// TestStepBudget: a run counts one step per statement and per loop
// iteration, so a budget of exactly the steps a kernel takes runs it, one
// fewer stops it at its last step, and a loop that never ends stops with the
// non-termination text.
func TestStepBudget(t *testing.T) {
	const exhausted = "interp: step budget exhausted (possible non-termination)"
	// s, the for, i, three iterations of the body, the post and the loop's
	// own step, and the return: 13 steps.
	k := scan(t, "package kernels\n\n//repro:kernel id=1 name=test/steps minn=2\nfunc f() uint64 {\n\ts := uint64(0)\n\tfor i := 0; i < 3; i++ {\n\t\ts = s + uint64(i)\n\t}\n\treturn s\n}\n")
	SetStepBudget(t, 13)
	if got, err := k.Ref(2, nil); err != nil || got != 3 {
		t.Errorf("13 steps: %d, %v; want 3", got, err)
	}
	SetStepBudget(t, 12)
	if _, err := k.Ref(2, nil); err == nil || err.Error() != exhausted {
		t.Errorf("12 steps: err = %v, want %q", err, exhausted)
	}
	loop := scan(t, "package kernels\n\n//repro:kernel id=1 name=test/loop minn=2\nfunc f() uint64 {\n\ts := uint64(0)\n\tfor s < 1 {\n\t\ts = s * 2\n\t}\n\treturn s\n}\n")
	SetStepBudget(t, 10_000)
	if _, err := loop.Ref(2, nil); err == nil || err.Error() != exhausted {
		t.Errorf("err = %v, want %q", err, exhausted)
	}
}

// TestConcurrentRefsShareOneLowering: Refs of one lowering share the program
// compiled on the first and keep their state apart, so concurrent Refs over
// different inputs each get what a Ref alone gets.
func TestConcurrentRefsShareOneLowering(t *testing.T) {
	k := scan(t, sumKernel)
	const n, G = 64, 8
	ins := make([]map[string][]uint64, G)
	want := make([]uint64, G)
	for g := range ins {
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(g*1000 + i*i)
		}
		ins[g] = map[string][]uint64{"a": a}
		var err error
		if want[g], err = k.Ref(n, ins[g]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range G {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got, err := k.Ref(n, ins[g]); err != nil || got != want[g] {
					t.Errorf("goroutine %d: %d, %v; want %d", g, got, err, want[g])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInterpFrames pins what a frame indexed by the checker's offsets has to
// keep of the map of cells it replaced. The programs are mini-C because two
// of the cases need a declaration without an initialiser, which reads 0 here
// every time it is reached (the machine would leave the stack word as it
// was, so only the first two cases are also run on the emulator).
func TestInterpFrames(t *testing.T) {
	cases := []struct {
		name, src string
		want      uint64
		emulated  bool
	}{
		{"recursion-keeps-the-callers-locals", `
unsigned long f(unsigned long n) {
    unsigned long mine = n * 10;
    if (n == 0) return 0;
    unsigned long below = f(n - 1);
    return mine + below + n;
}
unsigned long main(void) { return f(3); }`, 66, true},
		{"loop-body-declaration-is-initialised-each-iteration", `
unsigned long main(void) {
    unsigned long s = 0;
    for (unsigned long i = 0; i < 3; i = i + 1) {
        unsigned long acc = 5;
        acc = acc + i;
        s = s + acc;
    }
    return s;
}`, 18, true},
		{"uninitialised-declaration-reads-zero-each-iteration", `
unsigned long main(void) {
    unsigned long s = 0;
    for (unsigned long i = 0; i < 3; i = i + 1) {
        unsigned long u;
        s = s + u;
        u = 7;
    }
    return s;
}`, 0, false},
		{"sibling-scopes-do-not-leak", `
unsigned long main(void) {
    unsigned long s = 0;
    if (s == 0) { unsigned long a = 41; s = s + a; }
    if (s != 0) { unsigned long b; s = s + b; b = 1; } else { unsigned long c = 9; s = s + c; }
    return s;
}`, 41, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := minic.Parse(c.src)
			if err == nil {
				err = minic.Check(prog)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := Interp(prog, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("interpreted to %d, want %d", got, c.want)
			}
			if !c.emulated {
				return
			}
			compiled, err := minic.Compile(c.src, minic.ModeCall)
			if err != nil {
				t.Fatal(err)
			}
			if e := emulate(t, compiled, nil); e != got {
				t.Errorf("emulator %d, interpreter %d", e, got)
			}
		})
	}
}

// TestInterpFrameStackRegrows: callee frames are carved from one word stack,
// and when that stack regrows, the callers' frames must stay where their
// holders point. The recursion is deep enough to regrow it at least twice;
// every level holds a *uint64 into its own frame across the call (the compound
// assignment resolves its destination first) and writes a local after its
// callee has returned.
func TestInterpFrameStackRegrows(t *testing.T) {
	const depth = 400
	const src = `
unsigned long f(unsigned long n) {
    unsigned long acc = n * 3;
    if (n == 0) return 1;
    acc += f(n - 1);
    unsigned long after = acc ^ n;
    after = after + f(0) + acc;
    return after;
}
unsigned long main(void) { return f(400); }`
	prog, err := minic.Parse(src)
	if err == nil {
		err = minic.Check(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Functions {
		if words := f.FrameSize / 8; f.Name == "f" && depth*words <= 4*frameStackWords {
			t.Fatalf("%d frames of %d words do not regrow a %d-word stack twice", depth, words, frameStackWords)
		}
	}
	got, err := Interp(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := minic.Compile(src, minic.ModeCall)
	if err != nil {
		t.Fatal(err)
	}
	if e := emulate(t, compiled, nil); e != got {
		t.Errorf("emulator %d, interpreter %d", e, got)
	}
}

func TestScanErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"no-kernel", "package kernels\n\nfunc f() uint64 {\n\treturn 0\n}\n", "no //repro:kernel"},
		{"two-kernels", "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn 0\n}\n\n//repro:kernel id=2 name=c/d minn=2\nfunc g() uint64 {\n\treturn 0\n}\n", "second //repro:kernel"},
		{"missing-id", "package kernels\n\n//repro:kernel name=a/b\nfunc f() uint64 {\n\treturn 0\n}\n", "needs id="},
		{"array-no-len", "package kernels\n\n//repro:array gen=u32\nvar a []uint64\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn 0\n}\n", "needs len="},
		{"bad-gen", "package kernels\n\n//repro:array len=n gen=zipf\nvar a []uint64\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn 0\n}\n", "unknown gen"},
		{"unannotated-array", "package kernels\n\nvar a []uint64\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn 0\n}\n", "//repro:array annotation"},
		{"bad-const", "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\n//repro:const X = log2(3)\nfunc f() uint64 {\n\treturn X\n}\n", "not a power of two"},
		{"entry-returns-void", "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() {\n}\n", "must return uint64"},
		{"entry-returns-int64", "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() int64 {\n\treturn 0\n}\n", "must return uint64"},
		{"float", "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\tx := 1.5\n\t_ = x\n\treturn 0\n}\n", "only integer literals"},
		{"shadow-global", "package kernels\n\n//repro:array len=n\nvar a []uint64\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\ta := uint64(0)\n\treturn a\n}\n", "shadows a file-scope var"},
		{"undeclared", "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn y\n}\n", "undeclared identifier"},
		{"goroutine", "package kernels\n\nfunc g() {\n}\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\tgo g()\n\treturn 0\n}\n", "unsupported statement"},
		{"range-loop", "package kernels\n\n//repro:array len=n\nvar a []uint64\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\tfor range a {\n\t}\n\treturn 0\n}\n", "unsupported statement"},
		{"bodiless-entry", bodilessEntry, "test.go:3:1: function has no body"},
		{"bodiless-helper", bodilessHelper, "test.go:4:1: function has no body"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Scan("test.go", []byte(c.src))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Scan err = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

func TestExprEval(t *testing.T) {
	cases := []struct {
		expr string
		n    int
		want int64
	}{
		{"n", 7, 7},
		{"4*n", 3, 12},
		{"pow2(4*n)", 2, 8},
		{"pow2(5)", 0, 8},
		{"pow2(1)", 0, 2}, // minimum table size is 2
		{"64 - log2(pow2(4*n))", 8, 59},
		{"(n + 1) / 2", 9, 5},
		{"256", 100, 256},
	}
	for _, c := range cases {
		e, err := parseExpr(c.expr)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		got, err := e.Eval(c.n)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		if got != c.want {
			t.Errorf("%s at n=%d = %d, want %d", c.expr, c.n, got, c.want)
		}
	}
	for _, bad := range []string{"m", "n / 0", "foo(n)", "n * 1.5"} {
		e, err := parseExpr(bad)
		if err != nil {
			continue // rejected at parse time is fine too
		}
		if _, err := e.Eval(4); err == nil {
			t.Errorf("%s: evaluated without error", bad)
		}
	}
}

func TestLoweringIsCachedPerN(t *testing.T) {
	k := scan(t, sumKernel)
	a, err := k.Source(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Source(16)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same n lowered differently twice")
	}
	c, err := k.Source(32)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different n produced identical sources")
	}
}

// TestLoweringCacheIsBounded: a kernel asked for 200 sizes keeps at most
// maxLowered of them, a forgotten size lowers again to the same bytes and the
// same checksum, and a remembered size costs Source and Ref no lowering.
func TestLoweringCacheIsBounded(t *testing.T) {
	k := scan(t, sumKernel)
	in := map[string][]uint64{"a": {3, 1, 4, 1, 5, 9, 2, 6}}
	first, err := k.Source(8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := k.Ref(8, in)
	if err != nil {
		t.Fatal(err)
	}
	for n := 9; n < 209; n++ {
		if _, err := k.Source(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(k.cache) > maxLowered {
			t.Fatalf("after n=%d the kernel keeps %d sizes, bound %d", n, len(k.cache), maxLowered)
		}
	}
	if _, kept := k.cache[8]; kept {
		t.Fatal("n=8 survived 200 other sizes: the case below would test nothing")
	}
	again, err := k.Source(8)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("a forgotten size lowered to different source")
	}
	if got, err := k.Ref(8, in); err != nil || got != want {
		t.Errorf("a forgotten size's reference = %d, %v; want %d", got, err, want)
	}
	hit := k.cache[8]
	if allocs := testing.AllocsPerRun(10, func() { k.Source(8) }); allocs != 0 {
		t.Errorf("Source on a remembered size allocates %v times", allocs)
	}
	if _, err := k.Ref(8, in); err != nil {
		t.Fatal(err)
	}
	if k.cache[8] != hit {
		t.Error("Source or Ref on a remembered size lowered it again")
	}
}

// TestScanErrorPositions pins the *position* part of scan errors: every
// diagnostic must point at the offending declaration or statement as
// file:line:col, hand-computed here against the literal sources. (The
// message substrings are covered by TestScanErrors; this table would catch a
// regression that anchors errors at the wrong node or drops the position.)
func TestScanErrorPositions(t *testing.T) {
	cases := []struct {
		name, src, wantPrefix string
	}{
		{
			// The annotation rides the doc comment, but the error anchors at
			// the annotated func declaration (line 4, the `func` keyword).
			name:       "bad-annotation-field",
			src:        "package kernels\n\n//repro:kernel id=1 name=a/b bogus\nfunc f() uint64 {\n\treturn 0\n}\n",
			wantPrefix: `gofront: test.go:4:1: bad //repro:kernel field "bogus"`,
		},
		{
			// The go statement itself: line 8, column 2 (after the tab).
			name:       "unsupported-statement",
			src:        "package kernels\n\nfunc g() {\n}\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\tgo g()\n\treturn 0\n}\n",
			wantPrefix: "gofront: test.go:8:2: unsupported statement",
		},
		{
			// A call of a function that exists nowhere in the file anchors at
			// the callee identifier: line 5, column 9 (`h` after "\treturn ").
			name:       "undefined-call",
			src:        "package kernels\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn h(1)\n}\n",
			wantPrefix: `gofront: test.go:5:9: call of undefined function "h"`,
		},
		{
			// A malformed len= expression anchors at the var spec's name:
			// line 4, column 5 (`a` after "var ").
			name:       "bad-len-expression",
			src:        "package kernels\n\n//repro:array len=n+\nvar a []uint64\n\n//repro:kernel id=1 name=a/b minn=2\nfunc f() uint64 {\n\treturn 0\n}\n",
			wantPrefix: `gofront: test.go:4:5: array "a": bad expression "n+"`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Scan("test.go", []byte(c.src))
			if err == nil {
				t.Fatalf("Scan succeeded, want error at %q", c.wantPrefix)
			}
			if !strings.HasPrefix(err.Error(), c.wantPrefix) {
				t.Errorf("Scan err = %q, want prefix %q", err, c.wantPrefix)
			}
		})
	}
}
