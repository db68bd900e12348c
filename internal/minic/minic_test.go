package minic

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/machine"
)

// compileRun compiles src in the given mode and runs it on the emulator,
// returning main's result (rax at halt).
func compileRun(t *testing.T, src string, mode Mode) uint64 {
	t.Helper()
	p, err := Compile(src, mode)
	if err != nil {
		t.Fatalf("compile (%s): %v", mode, err)
	}
	cpu, err := emu.RunProgram(p)
	if err != nil {
		t.Fatalf("run (%s): %v", mode, err)
	}
	return cpu.Result()
}

// runBothModes checks that call mode, fork mode (emulator) and fork mode
// (machine simulator) all agree with want.
func runBothModes(t *testing.T, src string, want uint64) {
	t.Helper()
	if got := compileRun(t, src, ModeCall); got != want {
		t.Errorf("call mode = %d, want %d", got, want)
	}
	if got := compileRun(t, src, ModeFork); got != want {
		t.Errorf("fork mode (emulator) = %d, want %d", got, want)
	}
	p, err := Compile(src, ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	r, err := machine.RunProgram(p, 4)
	if err != nil {
		t.Fatalf("fork mode (machine): %v", err)
	}
	if r.RAX != want {
		t.Errorf("fork mode (machine) = %d, want %d", r.RAX, want)
	}
}

func TestReturnConstant(t *testing.T) {
	runBothModes(t, `long main(void) { return 42; }`, 42)
}

func TestArithmetic(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long a = 10;
    long b = 3;
    return a*b + a/b - a%b + (a<<2) - (a>>1) + (a&b) + (a|b) + (a^b);
}`, 30+3-1+40-5+2+11+9)
}

func TestSignedDivision(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long a = 0 - 17;
    long b = 5;
    return a / b + 100;  // -3 + 100
}`, 97)
}

func TestUnsignedDivision(t *testing.T) {
	runBothModes(t, `
unsigned long main(void) {
    unsigned long a = 17;
    unsigned long b = 5;
    return a / b * 10 + a % b;
}`, 32)
}

func TestComparisonsSignedness(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long s = 0 - 1;
    unsigned long u = 0 - 1;   // max
    long r = 0;
    if (s < 1) r = r + 1;      // signed: -1 < 1
    if (u > 1) r = r + 10;     // unsigned: max > 1
    if (s <= 0 - 1) r = r + 100;
    if (1 > 0) r = r + 1000;
    return r;
}`, 1111)
}

func TestWhileLoop(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long i = 0;
    long s = 0;
    while (i < 10) { s = s + i; i = i + 1; }
    return s;
}`, 45)
}

func TestForLoopBreakContinue(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long s = 0;
    for (long i = 0; i < 100; i = i + 1) {
        if (i == 50) break;
        if (i % 2) continue;
        s = s + i;
    }
    return s;  // 0+2+...+48
}`, 600)
}

func TestGlobalsAndArrays(t *testing.T) {
	runBothModes(t, `
unsigned long t[8];
unsigned long n = 8;
long main(void) {
    for (unsigned long i = 0; i < n; i = i + 1) t[i] = i * i;
    unsigned long s = 0;
    for (unsigned long i = 0; i < n; i = i + 1) s = s + t[i];
    return s;  // 0+1+4+...+49
}`, 140)
}

func TestPointers(t *testing.T) {
	runBothModes(t, `
unsigned long buf[4];
unsigned long main(void) {
    unsigned long *p = buf;
    *p = 5;
    *(p + 1) = 7;
    p[2] = 11;
    unsigned long *q = &buf[3];
    *q = 13;
    return buf[0] + buf[1] + buf[2] + buf[3] + (q - p);
}`, 5+7+11+13+3)
}

func TestLocalArrays(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long a[5];
    for (long i = 0; i < 5; i = i + 1) a[i] = i + 1;
    long s = 0;
    for (long i = 0; i < 5; i = i + 1) s = s + a[i];
    return s;
}`, 15)
}

func TestFunctionCalls(t *testing.T) {
	runBothModes(t, `
long add3(long a, long b, long c) { return a + b + c; }
long twice(long x) { return add3(x, x, 0); }
long main(void) { return twice(add3(1, 2, 3)) + add3(10, 20, 30); }`, 72)
}

func TestSixArguments(t *testing.T) {
	runBothModes(t, `
long f(long a, long b, long c, long d, long e, long g) {
    return a + 2*b + 3*c + 4*d + 5*e + 6*g;
}
long main(void) { return f(1, 2, 3, 4, 5, 6); }`, 1+4+9+16+25+36)
}

func TestRecursionFactorial(t *testing.T) {
	runBothModes(t, `
unsigned long fact(unsigned long n) {
    if (n < 2) return 1;
    return n * fact(n - 1);
}
unsigned long main(void) { return fact(10); }`, 3628800)
}

// TestRecursiveSum compiles the paper's Fig. 1a C function (almost verbatim)
// and checks it in both modes — the core claim of §2: the same C code runs
// sequentially with call/ret and in parallel sections with fork/endfork.
func TestRecursiveSum(t *testing.T) {
	src := `
unsigned long t[64];
unsigned long sum(unsigned long *p, unsigned long n) {
    if (n == 1) return p[0];
    else if (n == 2) return p[0] + p[1];
    else return sum(p, n/2) + sum(&p[n/2], n - n/2);
}
unsigned long main(void) {
    for (unsigned long i = 0; i < 64; i = i + 1) t[i] = i + 1;
    return sum(t, 64);
}`
	runBothModes(t, src, 64*65/2)
}

func TestShortCircuit(t *testing.T) {
	runBothModes(t, `
unsigned long g = 0;
long touch(void) { g = g + 1; return 1; }
long main(void) {
    long a = 0 && touch();   // touch not called
    long b = 1 || touch();   // touch not called
    long c = 1 && touch();   // called
    long d = 0 || touch();   // called
    return g * 100 + a + b * 10 + c + d;
}`, 212)
}

func TestTernary(t *testing.T) {
	runBothModes(t, `
long max(long a, long b) { return a > b ? a : b; }
long main(void) { return max(3, 9) * 10 + max(7, 2); }`, 97)
}

func TestCompoundAssign(t *testing.T) {
	runBothModes(t, `
unsigned long a[3];
long main(void) {
    long x = 10;
    x += 5; x -= 3; x *= 4; x /= 6; x %= 5;  // ((10+5-3)*4/6)%5 = 8%5 = 3
    a[1] = 7;
    a[1] += 3;
    long i = 1;
    a[i] *= 2;
    ++x;
    return x * 100 + a[1];
}`, 420)
}

func TestVoidFunction(t *testing.T) {
	runBothModes(t, `
unsigned long g;
void set(unsigned long v) { g = v; }
unsigned long main(void) { set(123); return g; }`, 123)
}

func TestGlobalInitialisers(t *testing.T) {
	runBothModes(t, `
long a = 5, b = -3;
unsigned long c = 0x10;
long main(void) { return a + b + c; }`, 18)
}

func TestNestedIndexing(t *testing.T) {
	runBothModes(t, `
unsigned long idx[4];
unsigned long v[4];
unsigned long main(void) {
    idx[0] = 3; idx[1] = 2; idx[2] = 1; idx[3] = 0;
    v[0] = 10; v[1] = 20; v[2] = 30; v[3] = 40;
    return v[idx[1]];
}`, 30)
}

func TestNotAndBitwise(t *testing.T) {
	runBothModes(t, `
long main(void) {
    long x = 5;
    long a = !x;        // 0
    long b = !a;        // 1
    long c = ~0;        // -1
    return b * 10 + a - c;
}`, 11)
}

// TestFibBothModes cross-checks a doubly recursive function on the machine
// with more cores.
func TestFibBothModes(t *testing.T) {
	src := `
unsigned long fib(unsigned long n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
unsigned long main(void) { return fib(11); }`
	if got := compileRun(t, src, ModeCall); got != 89 {
		t.Errorf("call fib(11) = %d", got)
	}
	p, err := Compile(src, ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	r, err := machine.RunProgram(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.RAX != 89 {
		t.Errorf("machine fib(11) = %d", r.RAX)
	}
	if len(r.Sections) < 50 {
		t.Errorf("fib(11) created only %d sections", len(r.Sections))
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`long main(void) { return x; }`, "undeclared identifier"},
		{`long main(void) { long x; long x; return 0; }`, "duplicate variable"},
		{`long f(long a, long a) { return 0; } long main(void){return 0;}`, "duplicate parameter"},
		{`long main(void) { return f(); }`, "undefined function"},
		{`long f(long a) { return a; } long main(void) { return f(); }`, "takes 1 arguments"},
		{`long main(void) { 5 = 6; return 0; }`, "non-lvalue"},
		{`long main(void) { break; }`, "outside a loop"},
		{`void main(void) { return 5; }`, "return with a value"},
		{`long main(void) { long *p; return *p * *p(); }`, "undefined function"},
		{`long main(void) { return (1+2)(); }`, "call of non-function"},
		{`long g(void) { return 1; }`, "no main"},
		{`long main(void) { long a[x]; return 0; }`, "array length must be a constant"},
		{`long f(long a, long b, long c, long d, long e, long g, long h) { return 0; } long main(void){return 0;}`, "at most 6"},
		{`long main(void) { /* unterminated`, "unterminated comment"},
		{`long main(void) { return 0 @ 1; }`, "unexpected character"},
		{`long main(void) { long *p; long *q; return p * q; }`, "invalid operands"},
	}
	for _, c := range cases {
		_, err := Compile(c.src, ModeCall)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q) error = %q, want containing %q", c.src, err, c.want)
		}
	}
}

// TestGeneratedAsmShape: a call site is a call and a return a ret in call
// mode; in fork mode they are a fork and an endfork, and no call or ret is
// left.
func TestGeneratedAsmShape(t *testing.T) {
	src := `long f(long x) { return x + 1; } long main(void) { return f(41); }`
	count := func(mode Mode) map[isa.Op]int {
		p, err := Compile(src, mode)
		if err != nil {
			t.Fatal(err)
		}
		ops := map[isa.Op]int{}
		for _, in := range p.Text {
			ops[in.Op]++
			if (in.Op == isa.CALL || in.Op == isa.FORK) && in.Label == "f" && in.Target != p.Labels["f"] {
				t.Errorf("%s mode: %s resolves to %d, f is at %d", mode, in, in.Target, p.Labels["f"])
			}
		}
		return ops
	}
	// The driver calls (forks) main, main calls (forks) f, and each of
	// main and f has a return statement and a fall-through epilogue.
	if ops := count(ModeCall); ops[isa.CALL] != 2 || ops[isa.RET] != 4 || ops[isa.FORK]+ops[isa.ENDFORK] != 0 {
		t.Errorf("call mode: %d call, %d ret, %d fork, %d endfork", ops[isa.CALL], ops[isa.RET], ops[isa.FORK], ops[isa.ENDFORK])
	}
	if ops := count(ModeFork); ops[isa.FORK] != 2 || ops[isa.ENDFORK] != 4 || ops[isa.CALL]+ops[isa.RET] != 0 {
		t.Errorf("fork mode: %d fork, %d endfork, %d call, %d ret", ops[isa.FORK], ops[isa.ENDFORK], ops[isa.CALL], ops[isa.RET])
	}
}
