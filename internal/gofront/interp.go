package gofront

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/minic"
)

// This file is the reference-semantics half of the front end: a compiler
// from the *checked* minic AST to Go closures, and the runs of what it
// compiled. Ref runs the exact tree that minic.Compile turns into machine
// code, so the reference checksum and the compiled program cannot drift —
// the property the hand-written kernels had to re-establish at runtime by
// cross-validation. A lowering is compiled once, on its first Ref, and every
// name, operator and call in it is resolved then: a local to its frame slot,
// a global to its place in the run's storage, an operator to the function
// that applies it with its signedness and shift mask, a call to its callee
// and frame size. A run keeps its own globals, frame stack and step count, so
// one compiled program serves concurrent runs; a finished run's storage goes
// back to the program's pool for the next.
//
// The semantics deliberately mirror the code generator and emulator:
// shift counts are masked to 6 bits, division by zero is an error (the
// machine faults), / % and the relational operators take their signedness
// from the operand types exactly as codegen emits them, a simple assignment
// evaluates its right side before resolving the destination while a compound
// assignment resolves the destination first, and && || short-circuit to 0/1.
// One place a run is stricter than the hardware: an out-of-range
// array index is an error here, where the machine would silently touch a
// neighbouring data-segment word. A declaration without an initialiser reads
// 0 each time it is reached. One step is counted per statement and per loop
// iteration. A construct outside the lowered subset compiles to a closure
// that fails, with its own text, at the point of a run where it is
// evaluated.

// maxSteps bounds a run so a buggy kernel cannot hang a vet or sweep; at
// tens of millions of statements per second this is minutes, far past any
// real kernel at paper-scale n. Tests lower it.
var maxSteps int64 = 4_000_000_000

// Interp compiles a checked minic program and runs its main function over
// the given inputs (data-segment symbol -> words, the same shape the machine
// loader takes), returning main's value. The program must have been checked
// (names resolved, types assigned); Kernel.Ref arranges that, and keeps what
// it compiles.
func Interp(prog *minic.Program, in map[string][]uint64) (uint64, error) {
	return compile(prog).run(in)
}

// program is a checked minic program compiled to closures. It is read-only
// once compiled, but for its pool of runs.
type program struct {
	globals []global
	words   int       // the globals' storage, in words
	main    *function // nil if there is none

	runs sync.Pool // of *run: finished runs, whose storage the next reuses
}

// global is where one global lives in a run's storage: mem[off : off+len].
type global struct {
	name string
	off  int
	len  int
	init uint64 // a scalar's initial value; arrays start zeroed
}

// function is one compiled function. Calls hold it by pointer, so a
// recursive call resolves before the body it calls is compiled.
type function struct {
	body   stmt
	words  int   // frame size in words
	params []int // the parameters' frame slots
}

// The compiled forms: an expression yields its value, a statement what
// control does next and, for a return, the value. Both run over the run's
// state and the frame of the call they belong to.
type (
	expr func(r *run, fr []uint64) uint64
	stmt func(r *run, fr []uint64) (control, uint64)
)

type control uint8

const (
	ctlNone control = iota
	ctlReturn
	ctlBreak
	ctlContinue
)

// run is one evaluation of a program: its copy of the globals, the frames of
// the calls in progress and the steps it has left.
type run struct {
	mem   []uint64
	stack []uint64 // innermost frame last
	left  int64
}

// fault carries a run's error out of the closures to run, which recovers
// it: an error is the end of a run, so nothing between the two has to test
// for one.
type fault struct{ err error }

func fail(err error) { panic(fault{err}) }

var (
	errExhausted   = errors.New("interp: step budget exhausted (possible non-termination)")
	errDivZero     = errors.New("interp: division by zero")
	errDivOverflow = errors.New("interp: signed division overflow")
	errPointer     = errors.New("interp: pointer arithmetic is outside the lowered subset")
)

func (r *run) tick() {
	if r.left--; r.left < 0 {
		fail(errExhausted)
	}
}

// frameStackWords is the word stack's first capacity; it doubles from there.
const frameStackWords = 256

// push hands out a zeroed frame of the given size from the top of the word
// stack. When the stack must grow, only the frames pushed from then on live
// in the new array: the callers' frames stay where they are, in the old one,
// because a caller holds its frame as a slice across the call.
func (r *run) push(words int) []uint64 {
	top := len(r.stack)
	if top+words > cap(r.stack) {
		r.stack = make([]uint64, top, max(2*cap(r.stack), top+words, frameStackWords))
	}
	r.stack = r.stack[:top+words]
	fr := r.stack[top:]
	clear(fr)
	return fr
}

// pop returns the innermost frame's words to the stack.
func (r *run) pop(words int) { r.stack = r.stack[:len(r.stack)-words] }

// run evaluates main over the inputs.
func (p *program) run(in map[string][]uint64) (v uint64, err error) {
	r := p.get()
	defer p.runs.Put(r)
	for _, g := range p.globals {
		if g.init != 0 {
			r.mem[g.off] = g.init
		}
	}
	for sym, words := range in {
		i := slices.IndexFunc(p.globals, func(g global) bool { return g.name == sym })
		if i < 0 {
			return 0, fmt.Errorf("interp: input for unknown symbol %q", sym)
		}
		g := p.globals[i]
		if len(words) > g.len {
			return 0, fmt.Errorf("interp: %d input words overflow %q (%d words)", len(words), sym, g.len)
		}
		copy(r.mem[g.off:], words)
	}
	if p.main == nil {
		return 0, fmt.Errorf("interp: no main function")
	}
	defer func() {
		if x := recover(); x != nil {
			f, ok := x.(fault)
			if !ok {
				panic(x)
			}
			v, err = 0, f.err
		}
	}()
	ctl, v := p.main.body(r, r.push(p.main.words))
	if ctl != ctlReturn {
		return 0, fmt.Errorf("interp: main fell off the end without returning")
	}
	return v, nil
}

// get returns a run with zeroed globals, an empty frame stack and the full
// step budget: a finished run's, or a new one, whose globals and first frame
// stack are one allocation.
func (p *program) get() *run {
	if r, ok := p.runs.Get().(*run); ok {
		clear(r.mem)
		r.stack, r.left = r.stack[:0], maxSteps
		return r
	}
	buf := make([]uint64, p.words+frameStackWords)
	return &run{mem: buf[:p.words:p.words], stack: buf[p.words:p.words], left: maxSteps}
}

// compiler resolves a program's names once, for compile.
type compiler struct {
	globals map[*minic.GlobalVar]int // index into program.globals
	funcs   map[*minic.Function]*function
	prog    *program
}

// compile compiles a checked program. It cannot fail: what the tree does not
// support compiles to a closure that fails when a run reaches it.
func compile(prog *minic.Program) *program {
	c := &compiler{
		globals: make(map[*minic.GlobalVar]int, len(prog.Globals)),
		funcs:   make(map[*minic.Function]*function, len(prog.Functions)),
		prog:    &program{globals: make([]global, len(prog.Globals))},
	}
	for i, g := range prog.Globals {
		n := 1
		if g.Type.Kind == minic.TypeArray {
			n = int(g.Type.Len)
		}
		c.prog.globals[i] = global{name: g.Name, off: c.prog.words, len: n}
		if g.Type.Kind != minic.TypeArray {
			c.prog.globals[i].init = g.Init
		}
		c.prog.words += n
		c.globals[g] = i
	}
	for _, f := range prog.Functions {
		fn := c.function(f)
		if f.Name == "main" {
			c.prog.main = fn
		}
	}
	return c.prog
}

// function returns f compiled, compiling it on first use.
func (c *compiler) function(f *minic.Function) *function {
	if fn, ok := c.funcs[f]; ok {
		return fn
	}
	fn := &function{words: int(f.FrameSize / 8), params: make([]int, len(f.Params))}
	c.funcs[f] = fn
	for i, p := range f.Params {
		fn.params[i] = slot(p)
	}
	fn.body = c.block(f.Body)
	return fn
}

// slot is a local's index in its frame, laid out as the checker laid out the
// machine's: the word at rbp+Offset is frame[slot(v)]. Check gives every
// parameter and declaration of a function its own offset.
func slot(v *minic.LocalVar) int { return int(-v.Offset/8) - 1 }

// block compiles a statement list: the first control other than ctlNone
// ends it.
func (c *compiler) block(ss []*minic.Stmt) stmt {
	body := make([]stmt, len(ss))
	for i, s := range ss {
		body[i] = c.stmt(s)
	}
	switch len(body) {
	case 0:
		return func(*run, []uint64) (control, uint64) { return ctlNone, 0 }
	case 1:
		return body[0]
	}
	return func(r *run, fr []uint64) (control, uint64) {
		for _, s := range body {
			if ctl, v := s(r, fr); ctl != ctlNone {
				return ctl, v
			}
		}
		return ctlNone, 0
	}
}

// stmt compiles one statement. Every statement counts its step before it
// does anything else.
func (c *compiler) stmt(s *minic.Stmt) stmt {
	switch s.Kind {
	case minic.StmtExpr:
		e := c.expr(s.E)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			e(r, fr)
			return ctlNone, 0
		}
	case minic.StmtDecl:
		// A declaration without an initialiser reads 0 here, each time it
		// is reached; the machine leaves the stack word as it was.
		i := slot(s.Decl)
		if s.DeclInit == nil {
			return func(r *run, fr []uint64) (control, uint64) {
				r.tick()
				fr[i] = 0
				return ctlNone, 0
			}
		}
		e := c.expr(s.DeclInit)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			fr[i] = e(r, fr)
			return ctlNone, 0
		}
	case minic.StmtIf:
		cond, then := c.expr(s.E), c.block(s.Body)
		if len(s.Else) == 0 {
			return func(r *run, fr []uint64) (control, uint64) {
				r.tick()
				if cond(r, fr) != 0 {
					return then(r, fr)
				}
				return ctlNone, 0
			}
		}
		els := c.block(s.Else)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			if cond(r, fr) != 0 {
				return then(r, fr)
			}
			return els(r, fr)
		}
	case minic.StmtWhile:
		cond, body := c.expr(s.E), c.block(s.Body)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			for cond(r, fr) != 0 {
				switch ctl, v := body(r, fr); ctl {
				case ctlReturn:
					return ctl, v
				case ctlBreak:
					return ctlNone, 0
				}
				r.tick()
			}
			return ctlNone, 0
		}
	case minic.StmtFor:
		var init, post stmt
		var cond expr
		if s.Init != nil {
			init = c.stmt(s.Init)
		}
		if s.E != nil {
			cond = c.expr(s.E)
		}
		if s.Post != nil {
			post = c.stmt(s.Post)
		}
		body := c.block(s.Body)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			if init != nil {
				if ctl, v := init(r, fr); ctl != ctlNone {
					return ctl, v
				}
			}
			for cond == nil || cond(r, fr) != 0 {
				switch ctl, v := body(r, fr); ctl {
				case ctlReturn:
					return ctl, v
				case ctlBreak:
					return ctlNone, 0
				}
				if post != nil {
					if ctl, v := post(r, fr); ctl != ctlNone {
						return ctl, v
					}
				}
				r.tick()
			}
			return ctlNone, 0
		}
	case minic.StmtReturn:
		if s.E == nil {
			return func(r *run, _ []uint64) (control, uint64) {
				r.tick()
				return ctlReturn, 0
			}
		}
		e := c.expr(s.E)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			return ctlReturn, e(r, fr)
		}
	case minic.StmtBlock:
		body := c.block(s.Body)
		return func(r *run, fr []uint64) (control, uint64) {
			r.tick()
			return body(r, fr)
		}
	case minic.StmtBreak, minic.StmtContinue:
		ctl := ctlBreak
		if s.Kind == minic.StmtContinue {
			ctl = ctlContinue
		}
		return func(r *run, _ []uint64) (control, uint64) {
			r.tick()
			return ctl, 0
		}
	}
	err := fmt.Errorf("interp: unknown statement kind %d", s.Kind)
	return func(r *run, _ []uint64) (control, uint64) {
		r.tick()
		fail(err)
		return ctlNone, 0
	}
}

// cell is a compiled lvalue: it returns the word the lvalue names.
type cell func(r *run, fr []uint64) *uint64

// place compiles an lvalue to its cell: a frame slot, a global scalar, or an
// element of a global array, its index evaluated and range-checked. A cell's
// word does not move while it is held: a frame stays where it is when the
// frame stack regrows.
func (c *compiler) place(e *minic.Expr) cell {
	switch e.Kind {
	case minic.ExprVar:
		if e.Local != nil {
			i := slot(e.Local)
			return func(_ *run, fr []uint64) *uint64 { return &fr[i] }
		}
		if e.Global != nil {
			if e.Global.Type.Kind == minic.TypeArray {
				return failingCell(fmt.Errorf("interp: array %q used as a scalar", e.Name))
			}
			off := c.prog.globals[c.globals[e.Global]].off
			return func(r *run, _ []uint64) *uint64 { return &r.mem[off] }
		}
		return failingCell(fmt.Errorf("interp: unresolved identifier %q", e.Name))
	case minic.ExprIndex:
		el, err := c.array(e.L)
		if err != nil {
			return failingCell(err)
		}
		if j, ok := local(e.R); ok {
			return func(r *run, fr []uint64) *uint64 { return &r.mem[el.at(fr[j])] }
		}
		index := c.expr(e.R)
		return func(r *run, fr []uint64) *uint64 { return &r.mem[el.at(index(r, fr))] }
	}
	return failingCell(fmt.Errorf("interp: not an lvalue"))
}

// element is a global array as an index expression reaches it.
type element struct {
	off, len int
	name     string
}

// array resolves the base of an index expression, which must be a global
// array — the only aggregate the front end lowers.
func (c *compiler) array(base *minic.Expr) (*element, error) {
	if base.Kind != minic.ExprVar || base.Global == nil || base.Global.Type.Kind != minic.TypeArray {
		return nil, fmt.Errorf("interp: index base must be a global array")
	}
	g := c.prog.globals[c.globals[base.Global]]
	return &element{g.off, g.len, base.Name}, nil
}

// at returns the word of a run's storage that index i of the array names,
// failing if i is out of range.
func (el *element) at(i uint64) int {
	if i >= uint64(el.len) {
		el.outOfRange(i)
	}
	return el.off + int(i)
}

func (el *element) outOfRange(i uint64) {
	fail(fmt.Errorf("interp: index %d out of range for %q (%d words)", i, el.name, el.len))
}

// failingCell is a cell that fails when it is resolved.
func failingCell(err error) cell {
	return func(*run, []uint64) *uint64 {
		fail(err)
		return nil
	}
}

// failing is an expression that fails when it is evaluated.
func failing(err error) expr {
	return func(*run, []uint64) uint64 {
		fail(err)
		return 0
	}
}

// expr compiles an expression.
func (c *compiler) expr(e *minic.Expr) expr {
	switch e.Kind {
	case minic.ExprNum:
		v := e.Num
		return func(*run, []uint64) uint64 { return v }
	case minic.ExprVar, minic.ExprIndex:
		// A local, and an element indexed by a local, are read in place,
		// not through a cell.
		if i, ok := local(e); ok {
			return func(_ *run, fr []uint64) uint64 { return fr[i] }
		}
		if e.Kind == minic.ExprIndex {
			if j, ok := local(e.R); ok {
				if el, err := c.array(e.L); err == nil {
					return func(r *run, fr []uint64) uint64 { return r.mem[el.at(fr[j])] }
				}
			}
		}
		at := c.place(e)
		return func(r *run, fr []uint64) uint64 { return *at(r, fr) }
	case minic.ExprUnary:
		x := c.expr(e.L)
		switch e.Op {
		case "-":
			return func(r *run, fr []uint64) uint64 { return -x(r, fr) }
		case "~":
			return func(r *run, fr []uint64) uint64 { return ^x(r, fr) }
		case "!":
			return func(r *run, fr []uint64) uint64 { return b2u(x(r, fr) == 0) }
		}
		err := fmt.Errorf("interp: unsupported unary %q", e.Op)
		return func(r *run, fr []uint64) uint64 {
			x(r, fr)
			fail(err)
			return 0
		}
	case minic.ExprBinary:
		// Short-circuit: the right side must not evaluate when the left
		// decides, exactly as the generated branches behave.
		switch e.Op {
		case "&&":
			l, rt := c.expr(e.L), c.expr(e.R)
			return func(r *run, fr []uint64) uint64 { return b2u(l(r, fr) != 0 && rt(r, fr) != 0) }
		case "||":
			l, rt := c.expr(e.L), c.expr(e.R)
			return func(r *run, fr []uint64) uint64 { return b2u(l(r, fr) != 0 || rt(r, fr) != 0) }
		}
		return c.binary(operator(e.Op, e.L.Type, e.R.Type), e.L, e.R)
	case minic.ExprAssign:
		// A simple assignment evaluates its right side first, then the
		// destination — codegen's evaluation order; a compound one resolves
		// the destination once, first, and reads it after the right side.
		src := c.expr(e.R)
		if i, ok := local(e.L); ok && e.Op == "" {
			return func(r *run, fr []uint64) uint64 {
				v := src(r, fr)
				fr[i] = v
				return v
			}
		}
		at := c.place(e.L)
		if e.Op == "" {
			return func(r *run, fr []uint64) uint64 {
				v := src(r, fr)
				*at(r, fr) = v
				return v
			}
		}
		op := operator(e.Op, e.L.Type, e.R.Type)
		return func(r *run, fr []uint64) uint64 {
			p := at(r, fr)
			b := src(r, fr)
			*p = op(*p, b)
			return *p
		}
	case minic.ExprCall:
		if e.Callee == nil {
			return failing(fmt.Errorf("interp: unresolved call %q", e.Name))
		}
		return c.call(c.function(e.Callee), e.Args)
	case minic.ExprCond:
		cond, l, rt := c.expr(e.C), c.expr(e.L), c.expr(e.R)
		return func(r *run, fr []uint64) uint64 {
			if cond(r, fr) != 0 {
				return l(r, fr)
			}
			return rt(r, fr)
		}
	}
	return failing(fmt.Errorf("interp: unknown expression kind %d", e.Kind))
}

// call compiles a call of fn. The callee's frame is pushed before its
// arguments are evaluated in the caller's.
func (c *compiler) call(fn *function, args []*minic.Expr) expr {
	as := make([]expr, len(args))
	for i, a := range args {
		as[i] = c.expr(a)
	}
	return func(r *run, fr []uint64) uint64 {
		callee := r.push(fn.words)
		for i, a := range as {
			callee[fn.params[i]] = a(r, fr)
		}
		_, v := fn.body(r, callee)
		r.pop(fn.words)
		return v
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// local reports the frame slot of an expression that reads a local.
func local(e *minic.Expr) (int, bool) {
	if e.Kind == minic.ExprVar && e.Local != nil {
		return slot(e.Local), true
	}
	return 0, false
}

// binary compiles a (non-short-circuit) binary operator over its operands,
// the left evaluated first. A local or literal operand is read in place, not
// through a closure.
func (c *compiler) binary(op func(a, b uint64) uint64, le, re *minic.Expr) expr {
	if i, ok := local(le); ok {
		if j, ok := local(re); ok {
			return func(_ *run, fr []uint64) uint64 { return op(fr[i], fr[j]) }
		}
		if re.Kind == minic.ExprNum {
			k := re.Num
			return func(_ *run, fr []uint64) uint64 { return op(fr[i], k) }
		}
		rt := c.expr(re)
		return func(r *run, fr []uint64) uint64 {
			a := fr[i]
			return op(a, rt(r, fr))
		}
	}
	l := c.expr(le)
	if j, ok := local(re); ok {
		return func(r *run, fr []uint64) uint64 {
			a := l(r, fr)
			return op(a, fr[j])
		}
	}
	if re.Kind == minic.ExprNum {
		k := re.Num
		return func(r *run, fr []uint64) uint64 { return op(l(r, fr), k) }
	}
	rt := c.expr(re)
	return func(r *run, fr []uint64) uint64 {
		a := l(r, fr)
		return op(a, rt(r, fr))
	}
}

// operator resolves a (non-short-circuit) binary operator to the function
// that applies it with the machine's semantics: 6-bit shift counts,
// signedness from the checked operand types, division faults mirrored as
// errors. An operator outside the lowered subset resolves to one that fails.
func operator(op string, lt, rt *minic.Type) func(a, b uint64) uint64 {
	if lt.Kind == minic.TypePtr || lt.Kind == minic.TypeArray ||
		rt.Kind == minic.TypePtr || rt.Kind == minic.TypeArray {
		return func(uint64, uint64) uint64 {
			fail(errPointer)
			return 0
		}
	}
	unsigned := lt.IsUnsigned() || rt.IsUnsigned()
	switch op {
	case "+":
		return func(a, b uint64) uint64 { return a + b }
	case "-":
		return func(a, b uint64) uint64 { return a - b }
	case "*":
		return func(a, b uint64) uint64 { return a * b }
	case "&":
		return func(a, b uint64) uint64 { return a & b }
	case "|":
		return func(a, b uint64) uint64 { return a | b }
	case "^":
		return func(a, b uint64) uint64 { return a ^ b }
	case "<<":
		return func(a, b uint64) uint64 { return a << (b & 63) }
	case ">>":
		if lt.IsUnsigned() {
			return func(a, b uint64) uint64 { return a >> (b & 63) }
		}
		return func(a, b uint64) uint64 { return uint64(int64(a) >> (b & 63)) }
	case "/":
		if unsigned {
			return func(a, b uint64) uint64 { return a / nonZero(b) }
		}
		return func(a, b uint64) uint64 { return uint64(int64(a) / signedDivisor(a, b)) }
	case "%":
		if unsigned {
			return func(a, b uint64) uint64 { return a % nonZero(b) }
		}
		return func(a, b uint64) uint64 { return uint64(int64(a) % signedDivisor(a, b)) }
	case "<":
		if unsigned {
			return func(a, b uint64) uint64 { return b2u(a < b) }
		}
		return func(a, b uint64) uint64 { return b2u(int64(a) < int64(b)) }
	case "<=":
		if unsigned {
			return func(a, b uint64) uint64 { return b2u(a <= b) }
		}
		return func(a, b uint64) uint64 { return b2u(int64(a) <= int64(b)) }
	case ">":
		if unsigned {
			return func(a, b uint64) uint64 { return b2u(a > b) }
		}
		return func(a, b uint64) uint64 { return b2u(int64(a) > int64(b)) }
	case ">=":
		if unsigned {
			return func(a, b uint64) uint64 { return b2u(a >= b) }
		}
		return func(a, b uint64) uint64 { return b2u(int64(a) >= int64(b)) }
	case "==":
		return func(a, b uint64) uint64 { return b2u(a == b) }
	case "!=":
		return func(a, b uint64) uint64 { return b2u(a != b) }
	}
	err := fmt.Errorf("interp: unsupported operator %q", op)
	return func(uint64, uint64) uint64 {
		fail(err)
		return 0
	}
}

// nonZero is an unsigned divisor, failing on zero.
func nonZero(b uint64) uint64 {
	if b == 0 {
		fail(errDivZero)
	}
	return b
}

// signedDivisor is a signed divisor of a, failing on zero and on the one
// quotient that overflows.
func signedDivisor(a, b uint64) int64 {
	if b == 0 {
		fail(errDivZero)
	}
	if int64(a) == math.MinInt64 && int64(b) == -1 {
		fail(errDivOverflow)
	}
	return int64(b)
}
