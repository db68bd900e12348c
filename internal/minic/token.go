// Package minic implements a compiler for mini-C — the C subset the
// reproduction uses to express the paper's workloads (the sum reduction of
// Fig. 1a and the ten PBBS-style kernels of Fig. 7) — targeting the
// reproduction's x86-flavoured ISA. Compile is Parse, then Check, then the
// code generator emitting each instruction straight into internal/asm's
// Builder, which resolves the labels and lays out the globals; no assembly
// text is printed or parsed on the way (asm.Listing prints a compiled
// program as text for reading).
//
// The language: `long` / `unsigned long` scalars (both 64-bit), pointers and
// fixed-size arrays of those, functions with up to six parameters, `if` /
// `else` / `while` / `for` / `break` / `continue` / `return`, and the usual
// C expression operators with C semantics (short-circuit && and ||,
// signedness-aware comparison, division and right shift). Every scalar,
// pointer and array element is 8 bytes.
//
// Two code generation modes reproduce the paper's §2:
//
//   - call mode (default): functions use call/ret and a conventional
//     rbp-framed stack, like the paper's Fig. 2;
//   - fork mode: call is replaced by fork and ret by endfork, like the
//     paper's Fig. 5 — the generated code runs in parallel sections on the
//     machine simulator with no other change, because all cross-call values
//     flow through fork-copied registers or renamed stack memory.
package minic

import "fmt"

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokPunct   // operators and delimiters
	tokKeyword // long, unsigned, void, if, else, while, for, return, break, continue
)

var keywords = map[string]bool{
	"long": true, "unsigned": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true,
}

// token is one lexical token.
type token struct {
	kind tokKind
	text string
	num  uint64 // for tokNumber
	line int
	col  int // 1-based column of the token's first byte
}

// Error is a compile error with a source position. Line is always set (0 only
// for whole-program errors like a missing main); Col is the 1-based column
// when the failing construct is known down to a token — parser and lexer
// errors carry it, checker and codegen errors are line-only. Every error the
// package returns is (or wraps) an *Error, so callers — the fuzz minimizer
// writing reproducers, editors jumping to positions — can unwrap it with
// errors.As and get at the structured position.
type Error struct {
	Line int
	Col  int
	Msg  string
}

func (e *Error) Error() string {
	if e.Col > 0 {
		return fmt.Sprintf("minic: line %d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return fmt.Sprintf("minic: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// errTok is errf anchored at a token: the error carries the token's line and
// column.
func errTok(t token, format string, args ...any) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// tokens is a lexed source, kept in chunks so that lexing copies nothing
// as it grows: a token list that comes new from Parse's pool allocates
// about the source's tokens once, and one an earlier parse gave back
// allocates nothing more unless the source is longer.
type tokens struct {
	chunks [][]token // tokenChunk tokens each; those past n are spare
	n      int
}

const tokenChunk = 64

func (ts *tokens) add(t token) {
	c := ts.n / tokenChunk
	if c == len(ts.chunks) {
		ts.chunks = append(ts.chunks, make([]token, tokenChunk))
	}
	ts.chunks[c][ts.n%tokenChunk] = t
	ts.n++
}

func (ts *tokens) at(i int) token { return ts.chunks[i/tokenChunk][i%tokenChunk] }

// reset empties ts, keeping its chunks.
func (ts *tokens) reset() {
	for c := 0; c*tokenChunk < ts.n; c++ {
		clear(ts.chunks[c])
	}
	ts.n = 0
}

// lex tokenises src into toks.
func lex(src string, toks *tokens) error {
	line := 1
	lineStart := 0 // byte offset of the current line's first column
	i := 0
	n := len(src)
	col := func() int { return i - lineStart + 1 }
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
			lineStart = i
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			startLine, startCol := line, col()
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
					lineStart = i + 1
				}
				i++
			}
			if i+1 >= n {
				return &Error{Line: startLine, Col: startCol, Msg: "unterminated comment"}
			}
			i += 2
		case isIdentStart(c):
			j := i
			for j < n && isIdentPart(src[j]) {
				j++
			}
			word := src[i:j]
			k := tokIdent
			if keywords[word] {
				k = tokKeyword
			}
			toks.add(token{kind: k, text: word, line: line, col: col()})
			i = j
		case c >= '0' && c <= '9':
			startCol := col()
			j := i
			base := uint64(10)
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				base = 16
				j = i + 2
				for j < n && isHex(src[j]) {
					j++
				}
				if j == i+2 {
					return &Error{Line: line, Col: startCol, Msg: "bad hex literal"}
				}
			} else {
				for j < n && src[j] >= '0' && src[j] <= '9' {
					j++
				}
			}
			var v uint64
			var digits string
			if base == 16 {
				digits = src[i+2 : j]
			} else {
				digits = src[i:j]
			}
			for _, d := range []byte(digits) {
				var dv uint64
				switch {
				case d >= '0' && d <= '9':
					dv = uint64(d - '0')
				case d >= 'a' && d <= 'f':
					dv = uint64(d-'a') + 10
				case d >= 'A' && d <= 'F':
					dv = uint64(d-'A') + 10
				}
				v = v*base + dv
			}
			// Accept UL/U/L suffixes.
			for j < n && (src[j] == 'u' || src[j] == 'U' || src[j] == 'l' || src[j] == 'L') {
				j++
			}
			toks.add(token{kind: tokNumber, num: v, text: src[i:j], line: line, col: startCol})
			i = j
		default:
			// Multi-character operators first.
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--":
				toks.add(token{kind: tokPunct, text: two, line: line, col: col()})
				i += 2
				continue
			}
			switch c {
			case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '=',
				'(', ')', '{', '}', '[', ']', ';', ',', '?', ':':
				toks.add(token{kind: tokPunct, text: string(c), line: line, col: col()})
				i++
			default:
				return &Error{Line: line, Col: col(), Msg: fmt.Sprintf("unexpected character %q", string(c))}
			}
		}
	}
	toks.add(token{kind: tokEOF, line: line, col: col()})
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
