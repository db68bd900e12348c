package minic

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseCheck is the front end's untrusted-input contract: any text
// either parses and checks, or is refused with an *Error carrying a line —
// never a panic, never a run-away. What Check accepts the code generator
// compiles, in both modes: the Builder refusing an instruction it emitted
// would be an internal error. Plain `go test` replays the seeds (the
// lowered and hand-written sources of all eleven kernels at two sizes, plus
// testdata/fuzz/FuzzParseCheck); `go test -fuzz=FuzzParseCheck` explores.
func FuzzParseCheck(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("..", "pbbs", "testdata", "golden", "*.c"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden kernel sources to seed from (%v)", err)
	}
	for _, name := range goldens {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range deepSources(maxNesting + 1) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil {
			err = Check(prog)
		}
		if err == nil {
			for _, mode := range []Mode{ModeCall, ModeFork} {
				if _, err := Compile(src, mode); err != nil {
					t.Fatalf("%s mode: Check accepts what does not compile: %v", mode, err)
				}
			}
			return
		}
		var pos *Error
		if !errors.As(err, &pos) {
			t.Fatalf("error without a position: %T %v", err, err)
		}
		if pos.Line < 0 || pos.Col < 0 || pos.Msg == "" {
			t.Fatalf("malformed position in %#v", pos)
		}
	})
}

// deepSources are the shapes that recurse once per repetition somewhere
// between the parser and the code generator. At 2²⁰ repetitions each of them
// used to overflow the goroutine stack — a crash no caller can recover from,
// and too long a text for the fuzzer to stumble on or the corpus to hold.
func deepSources(n int) map[string]string {
	rep := strings.Repeat
	return map[string]string{
		"parens":     "long main(void){return " + rep("(", n) + "1" + rep(")", n) + ";}",
		"unary":      "long main(void){return " + rep("~", n) + "1;}",
		"blocks":     "long main(void){" + rep("{", n) + rep("}", n) + "return 0;}",
		"ifs":        "long main(void){" + rep("if(1)", n) + "return 0; return 0;}",
		"subscripts": "long a[4]; long main(void){return a" + rep("[a", n) + "[0" + rep("]", n+1) + ";}",
		"ternaries":  "long main(void){return " + rep("1?1:", n) + "1;}",
		"assigns":    "long main(void){long x; " + rep("x=", n) + "1; return x;}",
		"operators":  "long main(void){return " + rep("1+", n) + "1;}",
		"postfixes":  "long a[4]; long main(void){return a" + rep("[0]", n) + ";}",
	}
}

// TestDeepNestingIsRefused: nesting past maxNesting is a positioned error
// however long the text, and nesting short of it still compiles.
func TestDeepNestingIsRefused(t *testing.T) {
	for name, src := range deepSources(1 << 16) {
		var pos *Error
		if _, err := Compile(src, ModeFork); !errors.As(err, &pos) || pos.Line != 1 || pos.Col == 0 ||
			!strings.Contains(pos.Msg, "nested deeper") {
			t.Errorf("%s: err = %v, want a positioned nesting error", name, err)
		}
	}
	for name, src := range deepSources(40) {
		if name == "subscripts" || name == "postfixes" {
			continue // a[0][0] does not type-check at any depth
		}
		if _, err := Compile(src, ModeFork); err != nil {
			t.Errorf("%s at 40 levels: %v", name, err)
		}
	}
}
