package gofront

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/minic"
)

// This file is the reference-semantics half of the front end: a pure-Go
// interpreter over the *checked* minic AST. Ref runs the exact tree that
// minic.Compile turns into machine code, so the reference checksum and the
// compiled program cannot drift — the property the hand-written kernels had
// to re-establish at runtime by cross-validation.
//
// The semantics deliberately mirror the code generator and emulator:
// shift counts are masked to 6 bits, division by zero is an error (the
// machine faults), / % and the relational operators take their signedness
// from the operand types exactly as codegen emits them, a simple assignment
// evaluates its right side before resolving the destination while a compound
// assignment resolves the destination first, and && || short-circuit to 0/1.
// One place the interpreter is stricter than the hardware: an out-of-range
// array index is an error here, where the machine would silently touch a
// neighbouring data-segment word.

// interpMaxSteps bounds interpretation so a buggy kernel cannot hang a vet
// or sweep; at millions of statements per second this is minutes, far past
// any real kernel at paper-scale n.
const interpMaxSteps = 4_000_000_000

// Interp runs a checked minic program's main function over the given inputs
// (data-segment symbol -> words, the same shape the machine loader takes)
// and returns its value. The program must have been checked (names resolved,
// types assigned); Kernel.Ref arranges that.
func Interp(prog *minic.Program, in map[string][]uint64) (uint64, error) {
	ip := &interp{prog: prog, globals: make([][]uint64, len(prog.Globals))}
	for i, g := range prog.Globals {
		if g.Type.Kind == minic.TypeArray {
			ip.globals[i] = make([]uint64, g.Type.Len)
		} else {
			ip.globals[i] = []uint64{g.Init}
		}
	}
	for sym, words := range in {
		i := slices.IndexFunc(prog.Globals, func(g *minic.GlobalVar) bool { return g.Name == sym })
		if i < 0 {
			return 0, fmt.Errorf("interp: input for unknown symbol %q", sym)
		}
		dst := ip.globals[i]
		if len(words) > len(dst) {
			return 0, fmt.Errorf("interp: %d input words overflow %q (%d words)", len(words), sym, len(dst))
		}
		copy(dst, words)
	}
	var main *minic.Function
	for _, f := range prog.Functions {
		if f.Name == "main" {
			main = f
		}
	}
	if main == nil {
		return 0, fmt.Errorf("interp: no main function")
	}
	ctl, v, err := ip.stmts(ip.push(main), main.Body)
	if err != nil {
		return 0, err
	}
	if ctl != ctlReturn {
		return 0, fmt.Errorf("interp: main fell off the end without returning")
	}
	return v, nil
}

type interp struct {
	prog    *minic.Program
	globals [][]uint64 // storage of prog.Globals[i]: a handful, found by scanning
	steps   int64
	stack   []uint64 // the frames of the calls in progress, innermost last
}

// global returns the storage of a global the checker resolved.
func (ip *interp) global(g *minic.GlobalVar) []uint64 {
	return ip.globals[slices.Index(ip.prog.Globals, g)]
}

// frame is one activation record, laid out as the checker laid out the
// machine's: the word at rbp+Offset is frame[slot(v)]. Check gives every
// parameter and declaration of a function its own offset, so a name resolves
// without a lookup and a resolved name cannot miss.
type frame []uint64

func slot(v *minic.LocalVar) int { return int(-v.Offset/8) - 1 }

// frameStackWords is the word stack's first capacity; it doubles from there.
const frameStackWords = 256

// push hands out a zeroed frame for a call of f from the top of the word
// stack. When the stack must grow, only the frames pushed from then on live in
// the new array: the callers' frames stay where they are, in the old one,
// because a caller holds its frame as a slice and may hold a *uint64 into it
// across the call.
func (ip *interp) push(f *minic.Function) frame {
	top, words := len(ip.stack), int(f.FrameSize/8)
	if top+words > cap(ip.stack) {
		ip.stack = make([]uint64, top, max(2*cap(ip.stack), top+words, frameStackWords))
	}
	ip.stack = ip.stack[:top+words]
	fr := frame(ip.stack[top:])
	clear(fr)
	return fr
}

// pop returns the innermost frame's words to the stack.
func (ip *interp) pop(fr frame) { ip.stack = ip.stack[:len(ip.stack)-len(fr)] }

type control uint8

const (
	ctlNone control = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

func (ip *interp) tick() error {
	ip.steps++
	if ip.steps > interpMaxSteps {
		return fmt.Errorf("interp: step budget exhausted (possible non-termination)")
	}
	return nil
}

func (ip *interp) stmts(fr frame, ss []*minic.Stmt) (control, uint64, error) {
	for _, s := range ss {
		ctl, v, err := ip.stmt(fr, s)
		if err != nil || ctl != ctlNone {
			return ctl, v, err
		}
	}
	return ctlNone, 0, nil
}

func (ip *interp) stmt(fr frame, s *minic.Stmt) (control, uint64, error) {
	if err := ip.tick(); err != nil {
		return ctlNone, 0, err
	}
	switch s.Kind {
	case minic.StmtExpr:
		_, err := ip.eval(fr, s.E)
		return ctlNone, 0, err
	case minic.StmtDecl:
		// A declaration without an initialiser reads 0 here, each time it
		// is reached; the machine leaves the stack word as it was.
		var v uint64
		if s.DeclInit != nil {
			var err error
			if v, err = ip.eval(fr, s.DeclInit); err != nil {
				return ctlNone, 0, err
			}
		}
		fr[slot(s.Decl)] = v
		return ctlNone, 0, nil
	case minic.StmtIf:
		c, err := ip.eval(fr, s.E)
		if err != nil {
			return ctlNone, 0, err
		}
		if c != 0 {
			return ip.stmts(fr, s.Body)
		}
		return ip.stmts(fr, s.Else)
	case minic.StmtWhile:
		for {
			c, err := ip.eval(fr, s.E)
			if err != nil {
				return ctlNone, 0, err
			}
			if c == 0 {
				return ctlNone, 0, nil
			}
			ctl, v, err := ip.stmts(fr, s.Body)
			if err != nil {
				return ctlNone, 0, err
			}
			switch ctl {
			case ctlReturn:
				return ctl, v, nil
			case ctlBreak:
				return ctlNone, 0, nil
			}
			if err := ip.tick(); err != nil {
				return ctlNone, 0, err
			}
		}
	case minic.StmtFor:
		if s.Init != nil {
			if ctl, v, err := ip.stmt(fr, s.Init); err != nil || ctl != ctlNone {
				return ctl, v, err
			}
		}
		for {
			if s.E != nil {
				c, err := ip.eval(fr, s.E)
				if err != nil {
					return ctlNone, 0, err
				}
				if c == 0 {
					return ctlNone, 0, nil
				}
			}
			ctl, v, err := ip.stmts(fr, s.Body)
			if err != nil {
				return ctlNone, 0, err
			}
			switch ctl {
			case ctlReturn:
				return ctl, v, nil
			case ctlBreak:
				return ctlNone, 0, nil
			}
			if s.Post != nil {
				if ctl, v, err := ip.stmt(fr, s.Post); err != nil || ctl != ctlNone {
					return ctl, v, err
				}
			}
			if err := ip.tick(); err != nil {
				return ctlNone, 0, err
			}
		}
	case minic.StmtReturn:
		if s.E == nil {
			return ctlReturn, 0, nil
		}
		v, err := ip.eval(fr, s.E)
		return ctlReturn, v, err
	case minic.StmtBlock:
		return ip.stmts(fr, s.Body)
	case minic.StmtBreak:
		return ctlBreak, 0, nil
	case minic.StmtContinue:
		return ctlContinue, 0, nil
	}
	return ctlNone, 0, fmt.Errorf("interp: unknown statement kind %d", s.Kind)
}

// cell resolves an lvalue to its storage cell. For indexed stores/loads the
// base must be a global array — the only aggregate the front end lowers.
func (ip *interp) cell(fr frame, e *minic.Expr) (*uint64, error) {
	switch e.Kind {
	case minic.ExprVar:
		if e.Local != nil {
			return &fr[slot(e.Local)], nil
		}
		if e.Global != nil {
			if e.Global.Type.Kind == minic.TypeArray {
				return nil, fmt.Errorf("interp: array %q used as a scalar", e.Name)
			}
			return &ip.global(e.Global)[0], nil
		}
		return nil, fmt.Errorf("interp: unresolved identifier %q", e.Name)
	case minic.ExprIndex:
		if e.L.Kind != minic.ExprVar || e.L.Global == nil || e.L.Global.Type.Kind != minic.TypeArray {
			return nil, fmt.Errorf("interp: index base must be a global array")
		}
		idx, err := ip.eval(fr, e.R)
		if err != nil {
			return nil, err
		}
		words := ip.global(e.L.Global)
		if idx >= uint64(len(words)) {
			return nil, fmt.Errorf("interp: index %d out of range for %q (%d words)", idx, e.L.Name, len(words))
		}
		return &words[idx], nil
	}
	return nil, fmt.Errorf("interp: not an lvalue")
}

func (ip *interp) eval(fr frame, e *minic.Expr) (uint64, error) {
	switch e.Kind {
	case minic.ExprNum:
		return e.Num, nil
	case minic.ExprVar:
		if e.Local != nil {
			return fr[slot(e.Local)], nil
		}
		c, err := ip.cell(fr, e)
		if err != nil {
			return 0, err
		}
		return *c, nil
	case minic.ExprIndex:
		c, err := ip.cell(fr, e)
		if err != nil {
			return 0, err
		}
		return *c, nil
	case minic.ExprUnary:
		v, err := ip.eval(fr, e.L)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("interp: unsupported unary %q", e.Op)
	case minic.ExprBinary:
		// Short-circuit first: the right side must not evaluate when the
		// left decides, exactly as the generated branches behave.
		if e.Op == "&&" || e.Op == "||" {
			l, err := ip.eval(fr, e.L)
			if err != nil {
				return 0, err
			}
			if e.Op == "&&" && l == 0 {
				return 0, nil
			}
			if e.Op == "||" && l != 0 {
				return 1, nil
			}
			r, err := ip.eval(fr, e.R)
			if err != nil {
				return 0, err
			}
			if r != 0 {
				return 1, nil
			}
			return 0, nil
		}
		l, err := ip.eval(fr, e.L)
		if err != nil {
			return 0, err
		}
		r, err := ip.eval(fr, e.R)
		if err != nil {
			return 0, err
		}
		return binop(e.Op, l, r, e.L.Type, e.R.Type)
	case minic.ExprAssign:
		if e.Op == "" {
			// Simple assignment: right side first, then the destination —
			// codegen's evaluation order.
			v, err := ip.eval(fr, e.R)
			if err != nil {
				return 0, err
			}
			c, err := ip.cell(fr, e.L)
			if err != nil {
				return 0, err
			}
			*c = v
			return v, nil
		}
		// Compound assignment: destination resolves once, first.
		c, err := ip.cell(fr, e.L)
		if err != nil {
			return 0, err
		}
		r, err := ip.eval(fr, e.R)
		if err != nil {
			return 0, err
		}
		v, err := binop(e.Op, *c, r, e.L.Type, e.R.Type)
		if err != nil {
			return 0, err
		}
		*c = v
		return v, nil
	case minic.ExprCall:
		if e.Callee == nil {
			return 0, fmt.Errorf("interp: unresolved call %q", e.Name)
		}
		callee := ip.push(e.Callee)
		for i, a := range e.Args {
			v, err := ip.eval(fr, a)
			if err != nil {
				return 0, err
			}
			callee[slot(e.Callee.Params[i])] = v
		}
		_, v, err := ip.stmts(callee, e.Callee.Body)
		ip.pop(callee)
		return v, err
	case minic.ExprCond:
		c, err := ip.eval(fr, e.C)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return ip.eval(fr, e.L)
		}
		return ip.eval(fr, e.R)
	}
	return 0, fmt.Errorf("interp: unknown expression kind %d", e.Kind)
}

// binop applies a (non-short-circuit) binary operator with the machine's
// semantics: 6-bit shift counts, signedness from the checked operand types,
// division faults mirrored as errors.
func binop(op string, l, r uint64, lt, rt *minic.Type) (uint64, error) {
	if lt.Kind == minic.TypePtr || lt.Kind == minic.TypeArray ||
		rt.Kind == minic.TypePtr || rt.Kind == minic.TypeArray {
		return 0, fmt.Errorf("interp: pointer arithmetic is outside the lowered subset")
	}
	unsigned := lt.IsUnsigned() || rt.IsUnsigned()
	switch op {
	case "+":
		return l + r, nil
	case "-":
		return l - r, nil
	case "*":
		return l * r, nil
	case "&":
		return l & r, nil
	case "|":
		return l | r, nil
	case "^":
		return l ^ r, nil
	case "<<":
		return l << (r & 63), nil
	case ">>":
		if lt.IsUnsigned() {
			return l >> (r & 63), nil
		}
		return uint64(int64(l) >> (r & 63)), nil
	case "/", "%":
		if r == 0 {
			return 0, fmt.Errorf("interp: division by zero")
		}
		if unsigned {
			if op == "/" {
				return l / r, nil
			}
			return l % r, nil
		}
		if int64(l) == math.MinInt64 && int64(r) == -1 {
			return 0, fmt.Errorf("interp: signed division overflow")
		}
		if op == "/" {
			return uint64(int64(l) / int64(r)), nil
		}
		return uint64(int64(l) % int64(r)), nil
	case "<", "<=", ">", ">=":
		var t bool
		if unsigned {
			switch op {
			case "<":
				t = l < r
			case "<=":
				t = l <= r
			case ">":
				t = l > r
			case ">=":
				t = l >= r
			}
		} else {
			a, b := int64(l), int64(r)
			switch op {
			case "<":
				t = a < b
			case "<=":
				t = a <= b
			case ">":
				t = a > b
			case ">=":
				t = a >= b
			}
		}
		if t {
			return 1, nil
		}
		return 0, nil
	case "==":
		if l == r {
			return 1, nil
		}
		return 0, nil
	case "!=":
		if l != r {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("interp: unsupported operator %q", op)
}
