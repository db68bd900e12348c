// Package asm implements a two-pass assembler for the gas-style (AT&T)
// assembly syntax used by the paper's listings (the Fig. 2 call version and
// the Fig. 5 fork version of the sum reduction), producing an isa.Program.
// Its role is to let internal/progs carry those listings verbatim, so the
// machine simulator is calibrated against exactly the code the paper
// counts.
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

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

type fixup struct {
	instr int    // index into program text
	sym   string // unresolved symbol
	where int    // 0 = Target, 1 = Src, 2 = Dst
	line  int
}

type assembler struct {
	prog    *Program
	section string // "text" or "data"
	fixups  []fixup
	dataOff uint64
}

// Program aliases isa.Program for callers that only import asm.
type Program = isa.Program

// Assemble assembles the given source. The entry point is the label "_start"
// if present, else "main" if present, else instruction 0.
func Assemble(src string) (*Program, error) {
	a := &assembler{prog: isa.NewProgram(), section: "text"}
	lines := strings.Split(src, "\n")
	a.prog.Text = make([]isa.Instruction, 0, countInstructions(lines))
	for i, raw := range lines {
		if err := a.line(i+1, raw); err != nil {
			return nil, err
		}
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	if e, ok := a.prog.Labels["_start"]; ok {
		a.prog.Entry = e
	} else if e, ok := a.prog.Labels["main"]; ok {
		a.prog.Entry = e
	}
	return a.prog, nil
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

// countInstructions counts the lines that assemble to an instruction: what
// is left after the comment and the labels, unless it is a directive. In the
// data section such a line is an error, so on success the count is exact
// and Text is allocated once, at the size it keeps.
func countInstructions(lines []string) int {
	n := 0
	for _, raw := range lines {
		s := stripComment(raw)
		for _, rest, ok := cutLabel(s); ok; _, rest, ok = cutLabel(s) {
			s = rest
		}
		if s != "" && s[0] != '.' {
			n++
		}
	}
	return n
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
		if err := a.defineLabel(n, name); err != nil {
			return err
		}
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

func (a *assembler) defineLabel(n int, name string) error {
	if a.section == "text" {
		if _, dup := a.prog.Labels[name]; dup {
			return &Error{n, fmt.Sprintf("duplicate label %q", name)}
		}
		a.prog.Labels[name] = int64(len(a.prog.Text))
		return nil
	}
	if _, dup := a.prog.DataSyms[name]; dup {
		return &Error{n, fmt.Sprintf("duplicate data symbol %q", name)}
	}
	a.prog.DataSyms[name] = isa.DataBase + a.dataOff
	return nil
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
			if err := a.reserve(n, 8); err != nil {
				return err
			}
			var w [8]byte
			putU64(w[:], uint64(v))
			a.prog.Data = append(a.prog.Data, w[:]...)
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
		if err := a.reserve(n, uint64(v)); err != nil {
			return err
		}
		a.prog.Data = append(a.prog.Data, make([]byte, v)...)
	default:
		return &Error{n, fmt.Sprintf("unknown directive %q", fields[0])}
	}
	return nil
}

// reserve grows the data segment by size bytes, or refuses to before
// anything is allocated: a segment longer than StackTop-DataBase overlaps the
// stack.
func (a *assembler) reserve(n int, size uint64) error {
	if size > isa.StackTop-isa.DataBase-a.dataOff {
		return &Error{n, fmt.Sprintf("%d data bytes after the first %d would overlap the stack at %#x", size, a.dataOff, isa.StackTop)}
	}
	a.dataOff += size
	return nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
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
	emit := func() {
		a.prog.Text = append(a.prog.Text, in)
	}

	if op, ok := zeroOperand[mn]; ok {
		if rest != "" {
			return &Error{n, fmt.Sprintf("%s takes no operands", mn)}
		}
		in.Op = op
		emit()
		return nil
	}
	if op, ok := branchOps[mn]; ok {
		in.Op = op
		if !isIdent(rest) {
			return &Error{n, fmt.Sprintf("%s needs a label target, got %q", mn, rest)}
		}
		in.Label = rest
		a.fixups = append(a.fixups, fixup{len(a.prog.Text), rest, 0, n})
		emit()
		return nil
	}
	if strings.HasPrefix(mn, "j") && mn != "jmp" {
		cc, ok := isa.ParseCond(mn[1:])
		if !ok {
			return &Error{n, fmt.Sprintf("unknown mnemonic %q", mn)}
		}
		in.Op = isa.Jcc
		in.Cond = cc
		if !isIdent(rest) {
			return &Error{n, fmt.Sprintf("%s needs a label target, got %q", mn, rest)}
		}
		in.Label = rest
		a.fixups = append(a.fixups, fixup{len(a.prog.Text), rest, 0, n})
		emit()
		return nil
	}
	if strings.HasPrefix(mn, "set") {
		cc, ok := isa.ParseCond(mn[3:])
		if !ok {
			return &Error{n, fmt.Sprintf("unknown mnemonic %q", mn)}
		}
		in.Op = isa.SETcc
		in.Cond = cc
		ops := splitOperands(rest)
		if len(ops) != 1 {
			return &Error{n, mn + " needs one operand"}
		}
		o, sym, err := a.operand(ops[0])
		if err != nil {
			return &Error{n, err.Error()}
		}
		if o.Kind == isa.KindImm {
			return &Error{n, mn + ": operand cannot be an immediate"}
		}
		in.Dst = o
		if sym != "" {
			a.fixups = append(a.fixups, fixup{len(a.prog.Text), sym, 2, n})
		}
		emit()
		return nil
	}
	if op, ok := oneOperand[mn]; ok {
		in.Op = op
		ops := splitOperands(rest)
		if len(ops) != 1 {
			return &Error{n, mn + " needs one operand"}
		}
		o, sym, err := a.operand(ops[0])
		if err != nil {
			return &Error{n, err.Error()}
		}
		switch {
		case o.Kind == isa.KindImm && op != isa.PUSH:
			return &Error{n, mn + ": operand cannot be an immediate"}
		case o.Kind == isa.KindMem && (op == isa.PUSH || op == isa.POP):
			// The stack slot is the instruction's one data address.
			return &Error{n, mn + ": a memory operand would be a second data address"}
		case op == isa.POP && o.Kind == isa.KindReg && o.Reg == isa.RSP:
			return &Error{n, "popq %rsp: the stack update and the loaded word would both be rsp"}
		}
		where := 2
		if op == isa.PUSH {
			in.Src = o
			where = 1
		} else {
			in.Dst = o
		}
		if sym != "" {
			a.fixups = append(a.fixups, fixup{len(a.prog.Text), sym, where, n})
		}
		emit()
		return nil
	}
	if op, ok := twoOperand[mn]; ok {
		in.Op = op
		ops := splitOperands(rest)
		if len(ops) == 1 && (op == isa.SHL || op == isa.SHR || op == isa.SAR) {
			// Single-operand shift-by-one form, as in the paper's
			// "shrq %rsi" (Fig. 2 line 11).
			ops = []string{"$1", ops[0]}
		}
		if len(ops) != 2 {
			return &Error{n, mn + " needs two operands"}
		}
		src, ssym, err := a.operand(ops[0])
		if err != nil {
			return &Error{n, err.Error()}
		}
		dst, dsym, err := a.operand(ops[1])
		if err != nil {
			return &Error{n, err.Error()}
		}
		if src.Kind == isa.KindMem && dst.Kind == isa.KindMem {
			return &Error{n, mn + ": both operands cannot be memory"}
		}
		if dst.Kind == isa.KindImm {
			return &Error{n, mn + ": destination cannot be an immediate"}
		}
		if op == isa.LEA && (src.Kind != isa.KindMem || dst.Kind != isa.KindReg) {
			return &Error{n, "leaq needs a memory source and a register destination"}
		}
		in.Src, in.Dst = src, dst
		if ssym != "" {
			a.fixups = append(a.fixups, fixup{len(a.prog.Text), ssym, 1, n})
		}
		if dsym != "" {
			a.fixups = append(a.fixups, fixup{len(a.prog.Text), dsym, 2, n})
		}
		emit()
		return nil
	}
	return &Error{n, fmt.Sprintf("unknown mnemonic %q", mn)}
}

// operand parses one operand. If it references a data symbol whose address is
// not yet known, it returns the symbol name for later fix-up.
func (a *assembler) operand(s string) (isa.Operand, string, error) {
	switch {
	case s == "":
		return isa.Operand{}, "", fmt.Errorf("empty operand")
	case s[0] == '%':
		r, ok := isa.ParseReg(s[1:])
		if !ok {
			return isa.Operand{}, "", fmt.Errorf("unknown register %q", s)
		}
		return isa.RegOp(r), "", nil
	case s[0] == '$':
		body := s[1:]
		if v, err := parseInt(body); err == nil {
			return isa.ImmOp(v), "", nil
		}
		if isIdent(body) {
			o := isa.ImmOp(0)
			o.Sym = body
			return o, body, nil
		}
		return isa.Operand{}, "", fmt.Errorf("bad immediate %q", s)
	}
	// Memory operand: [sym|disp] [ '(' base [',' index [',' scale]] ')' ]
	dispStr := s
	regsPart := ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return isa.Operand{}, "", fmt.Errorf("bad memory operand %q", s)
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
				return isa.Operand{}, "", fmt.Errorf("bad displacement %q", dispStr)
			}
			sym = dispStr[:i]
			disp = v
		} else {
			return isa.Operand{}, "", fmt.Errorf("bad displacement %q", dispStr)
		}
	}
	base, index := isa.NoReg, isa.NoReg
	scale := uint8(1)
	if regsPart != "" {
		parts := strings.Split(regsPart, ",")
		if len(parts) > 3 {
			return isa.Operand{}, "", fmt.Errorf("bad memory operand %q", s)
		}
		p0 := strings.TrimSpace(parts[0])
		if p0 != "" {
			if p0[0] != '%' {
				return isa.Operand{}, "", fmt.Errorf("bad base register %q", p0)
			}
			r, ok := isa.ParseReg(p0[1:])
			if !ok {
				return isa.Operand{}, "", fmt.Errorf("unknown register %q", p0)
			}
			base = r
		}
		if len(parts) >= 2 {
			p1 := strings.TrimSpace(parts[1])
			if p1 != "" {
				if p1[0] != '%' {
					return isa.Operand{}, "", fmt.Errorf("bad index register %q", p1)
				}
				r, ok := isa.ParseReg(p1[1:])
				if !ok {
					return isa.Operand{}, "", fmt.Errorf("unknown register %q", p1)
				}
				index = r
			}
		}
		if len(parts) == 3 {
			v, err := parseInt(strings.TrimSpace(parts[2]))
			if err != nil || (v != 1 && v != 2 && v != 4 && v != 8) {
				return isa.Operand{}, "", fmt.Errorf("bad scale %q", parts[2])
			}
			scale = uint8(v)
		}
	} else if sym == "" && dispStr == "" {
		return isa.Operand{}, "", fmt.Errorf("bad operand %q", s)
	}
	o := isa.MemOp(disp, base, index, scale)
	o.Sym = sym
	return o, sym, nil
}

func (a *assembler) resolve() error {
	for _, f := range a.fixups {
		in := &a.prog.Text[f.instr]
		switch f.where {
		case 0: // control-flow target: code label
			t, ok := a.prog.Labels[f.sym]
			if !ok {
				return &Error{f.line, fmt.Sprintf("undefined label %q", f.sym)}
			}
			in.Target = t
		case 1, 2:
			o := &in.Src
			if f.where == 2 {
				o = &in.Dst
			}
			if addr, ok := a.prog.DataSyms[f.sym]; ok {
				o.Imm += int64(addr)
				continue
			}
			if t, ok := a.prog.Labels[f.sym]; ok && o.Kind == isa.KindImm {
				// Address-of a code label (e.g. function pointers).
				o.Imm += t
				continue
			}
			return &Error{f.line, fmt.Sprintf("undefined symbol %q", f.sym)}
		}
	}
	return nil
}
