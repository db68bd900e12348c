// Package asm is the reproduction's assembler. Its one back end, the
// Builder, lays a program out from instructions with symbolic targets and
// data-symbol operands, data symbols with their words and zeroed bytes, and
// applies the operand-form rules every program obeys. It has two front ends:
// Assemble, a reader of the gas-style (AT&T) assembly syntax of the
// paper's listings (the Fig. 2 call version and the Fig. 5 fork version of
// the sum reduction), which lets internal/progs carry those listings
// verbatim so the machine simulator is calibrated against exactly the code
// the paper counts; and internal/minic's code generator, which emits
// instructions into a Builder with no text in between. Listing prints a
// program back as text (repro kernels -dump).
//
// Supported syntax (one statement per line; '#' and '//' start comments):
//
//	label:                 code label (may share a line with an instruction)
//	    movq (%rdi), %rax
//	    leaq (%rdi,%rsi,8), %rdi
//	    cmpq $2, %rsi
//	    ja .L2
//	    call sum
//	    fork sum
//	    endfork
//	.data                  switch to the data segment
//	t:  .quad 1, 2, 3      64-bit initialised words
//	buf: .space 1024       zeroed bytes
//	.text                  switch back to code
//	.global sum            accepted and ignored
//
// Data symbols may be used as immediates ($t = address of t) or as absolute
// or indexed memory operands (t, t(%rsi), t(,%rsi,8)).
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// Error describes an assembly failure with its source line (0 when the
// program did not come from text).
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	if e.Line == 0 {
		return "asm: " + e.Msg
	}
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// assembler is the text front end: it parses each line into the Builder.
type assembler struct {
	b       *Builder
	section string // "text" or "data"
}

// Program aliases isa.Program for callers that only import asm.
type Program = isa.Program

// Assemble assembles the given source. The entry point is the label "_start"
// if present, else "main" if present, else instruction 0.
func Assemble(src string) (*Program, error) {
	a := &assembler{b: NewBuilder(), section: "text"}
	for n := 1; src != ""; n++ {
		line, rest, _ := strings.Cut(src, "\n")
		src = rest
		a.b.line = n
		err := a.line(n, line)
		if a.b.err != nil { // the line's first error, if the Builder found it
			return nil, a.b.err
		}
		if err != nil {
			return nil, err
		}
	}
	return a.b.Finish()
}

func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

// cutLabel splits a leading label ("name:") off s.
func cutLabel(s string) (name, rest string, ok bool) {
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return "", s, false
	}
	name = strings.TrimSpace(s[:i])
	if !isIdent(name) {
		return "", s, false
	}
	return name, strings.TrimSpace(s[i+1:]), true
}

func (a *assembler) line(n int, raw string) error {
	s := stripComment(raw)
	// Peel off leading labels.
	for name, rest, ok := cutLabel(s); ok; name, rest, ok = cutLabel(s) {
		a.defineLabel(name)
		s = rest
	}
	if s == "" {
		return nil
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(n, s)
	}
	if a.section != "text" {
		return &Error{n, fmt.Sprintf("instruction %q in data section", s)}
	}
	return a.instruction(n, s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) defineLabel(name string) {
	if a.section == "text" {
		a.b.Label(name)
	} else {
		a.b.Data(name)
	}
}

func (a *assembler) directive(n int, s string) error {
	fields := strings.Fields(s)
	switch fields[0] {
	case ".text":
		a.section = "text"
	case ".data":
		a.section = "data"
	case ".global", ".globl", ".align", ".type", ".size", ".file", ".section":
		// Accepted for source compatibility; no effect.
	case ".quad":
		if a.section != "data" {
			return &Error{n, ".quad outside data section"}
		}
		args := strings.Split(strings.TrimSpace(s[len(".quad"):]), ",")
		for _, arg := range args {
			arg = strings.TrimSpace(arg)
			if arg == "" {
				continue
			}
			v, err := parseInt(arg)
			if err != nil {
				return &Error{n, fmt.Sprintf("bad .quad value %q: %v", arg, err)}
			}
			a.b.Quad(v)
		}
	case ".space", ".zero", ".skip":
		if a.section != "data" {
			return &Error{n, fields[0] + " outside data section"}
		}
		if len(fields) < 2 {
			return &Error{n, fields[0] + " needs a size"}
		}
		v, err := parseInt(strings.TrimSuffix(fields[1], ","))
		if err != nil || v < 0 {
			return &Error{n, fmt.Sprintf("bad size %q", fields[1])}
		}
		a.b.Space(uint64(v))
	default:
		return &Error{n, fmt.Sprintf("unknown directive %q", fields[0])}
	}
	return nil
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else if strings.HasPrefix(s, "+") {
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// splitOperands splits on commas that are not inside parentheses.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	if len(out) == 1 && out[0] == "" {
		return nil
	}
	return out
}

var zeroOperand = map[string]isa.Op{
	"nop": isa.NOP, "cqto": isa.CQTO, "ret": isa.RET,
	"endfork": isa.ENDFORK, "hlt": isa.HLT,
}

var twoOperand = map[string]isa.Op{
	"movq": isa.MOV, "leaq": isa.LEA,
	"addq": isa.ADD, "subq": isa.SUB, "andq": isa.AND, "orq": isa.OR,
	"xorq": isa.XOR, "imulq": isa.IMUL,
	"shlq": isa.SHL, "shrq": isa.SHR, "sarq": isa.SAR,
	"cmpq": isa.CMP, "testq": isa.TEST,
}

var oneOperand = map[string]isa.Op{
	"negq": isa.NEG, "notq": isa.NOT, "incq": isa.INC, "decq": isa.DEC,
	"divq": isa.DIV, "idivq": isa.IDIV,
	"pushq": isa.PUSH, "popq": isa.POP,
}

var branchOps = map[string]isa.Op{
	"jmp": isa.JMP, "call": isa.CALL, "fork": isa.FORK,
}

func (a *assembler) instruction(n int, s string) error {
	mn := s
	rest := ""
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		mn, rest = s[:i], strings.TrimSpace(s[i+1:])
	}
	in := isa.Instruction{}
	if op, ok := zeroOperand[mn]; ok {
		if rest != "" {
			return &Error{n, fmt.Sprintf("%s takes no operands", mn)}
		}
		in.Op = op
		a.b.Emit(in)
		return nil
	}
	op, branch := branchOps[mn]
	if !branch && strings.HasPrefix(mn, "j") {
		cc, ok := isa.ParseCond(mn[1:])
		if !ok {
			return &Error{n, fmt.Sprintf("unknown mnemonic %q", mn)}
		}
		op, in.Cond, branch = isa.Jcc, cc, true
	}
	if branch {
		if !isIdent(rest) {
			return &Error{n, fmt.Sprintf("%s needs a label target, got %q", mn, rest)}
		}
		in.Op, in.Label = op, rest
		a.b.Emit(in)
		return nil
	}
	ops := splitOperands(rest)
	if op, ok := twoOperand[mn]; ok {
		in.Op = op
		if len(ops) == 1 && (op == isa.SHL || op == isa.SHR || op == isa.SAR) {
			// Single-operand shift-by-one form, as in the paper's
			// "shrq %rsi" (Fig. 2 line 11).
			ops = []string{"$1", ops[0]}
		}
		if len(ops) != 2 {
			return &Error{n, mn + " needs two operands"}
		}
		var err error
		if in.Src, err = operand(ops[0]); err != nil {
			return &Error{n, err.Error()}
		}
		if in.Dst, err = operand(ops[1]); err != nil {
			return &Error{n, err.Error()}
		}
		a.b.Emit(in)
		return nil
	}
	if op, ok := oneOperand[mn]; ok {
		in.Op = op
	} else if cc, ok := isa.ParseCond(strings.TrimPrefix(mn, "set")); ok && strings.HasPrefix(mn, "set") {
		in.Op, in.Cond = isa.SETcc, cc
	} else {
		return &Error{n, fmt.Sprintf("unknown mnemonic %q", mn)}
	}
	if len(ops) != 1 {
		return &Error{n, mn + " needs one operand"}
	}
	o, err := operand(ops[0])
	if err != nil {
		return &Error{n, err.Error()}
	}
	if in.Op == isa.PUSH {
		in.Src = o
	} else {
		in.Dst = o
	}
	a.b.Emit(in)
	return nil
}

// operand parses one operand. One that names a symbol carries it in Sym, for
// the Builder to resolve.
func operand(s string) (isa.Operand, error) {
	switch {
	case s == "":
		return isa.Operand{}, fmt.Errorf("empty operand")
	case s[0] == '%':
		r, ok := isa.ParseReg(s[1:])
		if !ok {
			return isa.Operand{}, fmt.Errorf("unknown register %q", s)
		}
		return isa.RegOp(r), nil
	case s[0] == '$':
		body := s[1:]
		if v, err := parseInt(body); err == nil {
			return isa.ImmOp(v), nil
		}
		if isIdent(body) {
			o := isa.ImmOp(0)
			o.Sym = body
			return o, nil
		}
		return isa.Operand{}, fmt.Errorf("bad immediate %q", s)
	}
	// Memory operand: [sym|disp] [ '(' base [',' index [',' scale]] ')' ]
	dispStr := s
	regsPart := ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return isa.Operand{}, fmt.Errorf("bad memory operand %q", s)
		}
		dispStr = strings.TrimSpace(s[:i])
		regsPart = s[i+1 : len(s)-1]
	}
	var disp int64
	sym := ""
	if dispStr != "" {
		if v, err := parseInt(dispStr); err == nil {
			disp = v
		} else if isIdent(dispStr) {
			sym = dispStr
		} else if i := strings.LastIndexAny(dispStr, "+-"); i > 0 && isIdent(dispStr[:i]) {
			// sym+const or sym-const
			v, err := parseInt(dispStr[i:])
			if err != nil {
				return isa.Operand{}, fmt.Errorf("bad displacement %q", dispStr)
			}
			sym = dispStr[:i]
			disp = v
		} else {
			return isa.Operand{}, fmt.Errorf("bad displacement %q", dispStr)
		}
	}
	base, index := isa.NoReg, isa.NoReg
	scale := uint8(1)
	if regsPart != "" {
		parts := strings.Split(regsPart, ",")
		if len(parts) > 3 {
			return isa.Operand{}, fmt.Errorf("bad memory operand %q", s)
		}
		p0 := strings.TrimSpace(parts[0])
		if p0 != "" {
			if p0[0] != '%' {
				return isa.Operand{}, fmt.Errorf("bad base register %q", p0)
			}
			r, ok := isa.ParseReg(p0[1:])
			if !ok {
				return isa.Operand{}, fmt.Errorf("unknown register %q", p0)
			}
			base = r
		}
		if len(parts) >= 2 {
			p1 := strings.TrimSpace(parts[1])
			if p1 != "" {
				if p1[0] != '%' {
					return isa.Operand{}, fmt.Errorf("bad index register %q", p1)
				}
				r, ok := isa.ParseReg(p1[1:])
				if !ok {
					return isa.Operand{}, fmt.Errorf("unknown register %q", p1)
				}
				index = r
			}
		}
		if len(parts) == 3 {
			v, err := parseInt(strings.TrimSpace(parts[2]))
			if err != nil || (v != 1 && v != 2 && v != 4 && v != 8) {
				return isa.Operand{}, fmt.Errorf("bad scale %q", parts[2])
			}
			scale = uint8(v)
		}
	} else if sym == "" && dispStr == "" {
		return isa.Operand{}, fmt.Errorf("bad operand %q", s)
	}
	o := isa.MemOp(disp, base, index, scale)
	o.Sym = sym
	return o, nil
}
