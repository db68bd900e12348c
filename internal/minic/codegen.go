package minic

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// Mode selects the calling convention of the generated code (the paper's §2).
type Mode int

// Code generation modes.
const (
	// ModeCall emits conventional call/ret code (the paper's Fig. 2 style).
	ModeCall Mode = iota
	// ModeFork emits fork/endfork code (the paper's Fig. 5 style): a call
	// site forks the callee — the forking flow continues into the callee
	// while the created section runs the continuation; ret becomes endfork.
	// The generated code is otherwise identical: all values crossing the
	// fork flow through fork-copied non-volatile registers (rbp, rsp) or
	// through renamed stack memory, which is exactly what the paper's
	// machine provides.
	ModeFork
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeFork {
		return "fork"
	}
	return "call"
}

var argRegs = []string{"%rdi", "%rsi", "%rdx", "%rcx", "%r8", "%r9"}

// gen is the code generator state.
type gen struct {
	prog   *Program
	mode   Mode
	b      strings.Builder
	fn     *Function
	nlabel int
	brk    []string // break targets
	cont   []string // continue targets
}

// Generate emits gas-style assembly for a checked program.
func Generate(prog *Program, mode Mode) (string, error) {
	g := &gen{prog: prog, mode: mode}
	for _, gv := range prog.Globals {
		if prog.funcByName[gv.Name] != nil {
			return "", errf(0, "name %q is both a function and a global", gv.Name)
		}
	}
	// Driver: run main and halt. In fork mode the final hlt is the
	// continuation section of the whole program.
	g.emit("_start:")
	if mode == ModeFork {
		g.emit("\tfork main")
	} else {
		g.emit("\tcall main")
	}
	g.emit("\thlt")
	for _, f := range prog.Functions {
		if err := g.function(f); err != nil {
			return "", err
		}
	}
	if len(prog.Globals) > 0 {
		g.emit(".data")
		for _, gv := range prog.Globals {
			if gv.Type.Kind == TypeArray {
				g.emit(fmt.Sprintf("%s:\t.space %d", gv.Name, gv.Type.Size()))
			} else {
				g.emit(fmt.Sprintf("%s:\t.quad %d", gv.Name, int64(gv.Init)))
			}
		}
	}
	return g.b.String(), nil
}

// Compile parses, checks, generates and assembles src in one step: Parse,
// then CompileAST.
func Compile(src string, mode Mode) (*isa.Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(prog, mode)
}

func (g *gen) emit(s string) {
	g.b.WriteString(s)
	g.b.WriteByte('\n')
}

func (g *gen) op(format string, args ...any) {
	g.b.WriteByte('\t')
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) label() string {
	g.nlabel++
	return fmt.Sprintf(".L%s_%d", g.fn.Name, g.nlabel)
}

func (g *gen) function(f *Function) error {
	g.fn = f
	g.emit(fmt.Sprintf("%s:\t# %s %s(%d params), frame %d bytes [%s mode]",
		f.Name, f.Ret, f.Name, len(f.Params), f.FrameSize, g.mode))
	g.op("pushq %%rbp")
	g.op("movq %%rsp, %%rbp")
	if f.FrameSize > 0 {
		g.op("subq $%d, %%rsp", f.FrameSize)
	}
	for i, p := range f.Params {
		g.op("movq %s, %d(%%rbp)", argRegs[i], p.Offset)
	}
	if err := g.stmts(f.Body); err != nil {
		return err
	}
	// Fall-through return (void functions, or main without return).
	g.epilogue()
	return nil
}

func (g *gen) epilogue() {
	g.op("movq %%rbp, %%rsp")
	g.op("popq %%rbp")
	if g.mode == ModeFork {
		g.op("endfork")
	} else {
		g.op("ret")
	}
}

func (g *gen) stmts(ss []*Stmt) error {
	for _, s := range ss {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s *Stmt) error {
	switch s.Kind {
	case StmtExpr:
		return g.expr(s.E)
	case StmtDecl:
		if s.DeclInit != nil {
			if err := g.expr(s.DeclInit); err != nil {
				return err
			}
			g.op("movq %%rax, %d(%%rbp)", s.Decl.Offset)
		}
		return nil
	case StmtBlock:
		return g.stmts(s.Body)
	case StmtIf:
		els := g.label()
		end := els
		if len(s.Else) > 0 {
			end = g.label()
		}
		if err := g.condJump(s.E, els); err != nil {
			return err
		}
		if err := g.stmts(s.Body); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			g.op("jmp %s", end)
			g.emit(els + ":")
			if err := g.stmts(s.Else); err != nil {
				return err
			}
		}
		g.emit(end + ":")
		return nil
	case StmtWhile:
		top := g.label()
		end := g.label()
		g.emit(top + ":")
		if err := g.condJump(s.E, end); err != nil {
			return err
		}
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, top)
		err := g.stmts(s.Body)
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		if err != nil {
			return err
		}
		g.op("jmp %s", top)
		g.emit(end + ":")
		return nil
	case StmtFor:
		if s.Init != nil {
			if err := g.stmt(s.Init); err != nil {
				return err
			}
		}
		top := g.label()
		post := g.label()
		end := g.label()
		g.emit(top + ":")
		if s.E != nil {
			if err := g.condJump(s.E, end); err != nil {
				return err
			}
		}
		g.brk = append(g.brk, end)
		g.cont = append(g.cont, post)
		err := g.stmts(s.Body)
		g.brk = g.brk[:len(g.brk)-1]
		g.cont = g.cont[:len(g.cont)-1]
		if err != nil {
			return err
		}
		g.emit(post + ":")
		if s.Post != nil {
			if err := g.stmt(s.Post); err != nil {
				return err
			}
		}
		g.op("jmp %s", top)
		g.emit(end + ":")
		return nil
	case StmtReturn:
		if s.E != nil {
			if err := g.expr(s.E); err != nil {
				return err
			}
		}
		g.epilogue()
		return nil
	case StmtBreak:
		g.op("jmp %s", g.brk[len(g.brk)-1])
		return nil
	case StmtContinue:
		g.op("jmp %s", g.cont[len(g.cont)-1])
		return nil
	}
	return errf(s.Line, "unknown statement in codegen")
}

// condJump evaluates e and jumps to target when it is false. Comparisons at
// the top level fuse into cmp + jcc; everything else tests against zero.
func (g *gen) condJump(e *Expr, target string) error {
	if e.Kind == ExprBinary {
		if cc, signed := compareCond(e.Op); cc != "" {
			unsigned := decay(e.L.Type).IsUnsigned() || decay(e.R.Type).IsUnsigned()
			if err := g.expr(e.L); err != nil {
				return err
			}
			g.op("pushq %%rax")
			if err := g.expr(e.R); err != nil {
				return err
			}
			g.op("movq %%rax, %%rcx")
			g.op("popq %%rax")
			g.op("cmpq %%rcx, %%rax")
			g.op("j%s %s", negate(cc, signed && !unsigned), target)
			return nil
		}
	}
	if err := g.expr(e); err != nil {
		return err
	}
	g.op("cmpq $0, %%rax")
	g.op("je %s", target)
	return nil
}

// compareCond maps a comparison operator to its condition suffix for the
// signed form and reports whether it is a relational (signedness-sensitive).
func compareCond(op string) (string, bool) {
	switch op {
	case "==":
		return "e", false
	case "!=":
		return "ne", false
	case "<":
		return "l", true
	case "<=":
		return "le", true
	case ">":
		return "g", true
	case ">=":
		return "ge", true
	}
	return "", false
}

// negate returns the condition for the false branch; signed selects
// l/le/g/ge, otherwise b/be/a/ae.
func negate(cc string, signed bool) string {
	inv := map[string]string{"e": "ne", "ne": "e", "l": "ge", "le": "g", "g": "le", "ge": "l"}
	cc = inv[cc]
	if signed {
		return cc
	}
	uns := map[string]string{"l": "b", "le": "be", "g": "a", "ge": "ae", "e": "e", "ne": "ne"}
	return uns[cc]
}

// setCond returns the setcc suffix for op with the given signedness.
func setCond(op string, unsigned bool) string {
	var s string
	switch op {
	case "==":
		return "e"
	case "!=":
		return "ne"
	case "<":
		s = "l"
	case "<=":
		s = "le"
	case ">":
		s = "g"
	case ">=":
		s = "ge"
	}
	if unsigned {
		return map[string]string{"l": "b", "le": "be", "g": "a", "ge": "ae"}[s]
	}
	return s
}

// expr evaluates e into %rax. Temporaries are kept on the stack, so nested
// calls (and forks) are safe: the continuation reloads them through renamed
// stack memory.
func (g *gen) expr(e *Expr) error {
	switch e.Kind {
	case ExprNum:
		g.op("movq $%d, %%rax", int64(e.Num))
		return nil
	case ExprVar:
		if e.Type.Kind == TypeArray {
			return g.lvalueAddr(e) // arrays decay to their address
		}
		if e.Local != nil {
			g.op("movq %d(%%rbp), %%rax", e.Local.Offset)
		} else {
			g.op("movq %s, %%rax", e.Global.Name)
		}
		return nil
	case ExprUnary:
		switch e.Op {
		case "-":
			if err := g.expr(e.L); err != nil {
				return err
			}
			g.op("negq %%rax")
		case "~":
			if err := g.expr(e.L); err != nil {
				return err
			}
			g.op("notq %%rax")
		case "!":
			if err := g.expr(e.L); err != nil {
				return err
			}
			g.op("cmpq $0, %%rax")
			g.op("sete %%rax")
		case "*":
			if err := g.expr(e.L); err != nil {
				return err
			}
			if e.Type.Kind != TypeArray {
				g.op("movq (%%rax), %%rax")
			}
		case "&":
			return g.lvalueAddr(e.L)
		}
		return nil
	case ExprBinary:
		return g.binary(e)
	case ExprAssign:
		return g.assign(e)
	case ExprIndex:
		if err := g.lvalueAddr(e); err != nil {
			return err
		}
		if e.Type.Kind != TypeArray {
			g.op("movq (%%rax), %%rax")
		}
		return nil
	case ExprCall:
		return g.call(e)
	case ExprCond:
		els := g.label()
		end := g.label()
		if err := g.condJump(e.C, els); err != nil {
			return err
		}
		if err := g.expr(e.L); err != nil {
			return err
		}
		g.op("jmp %s", end)
		g.emit(els + ":")
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.emit(end + ":")
		return nil
	}
	return errf(e.Line, "unknown expression in codegen")
}

// lvalueAddr evaluates the address of an lvalue (or array) into %rax.
func (g *gen) lvalueAddr(e *Expr) error {
	switch e.Kind {
	case ExprVar:
		if e.Local != nil {
			g.op("leaq %d(%%rbp), %%rax", e.Local.Offset)
		} else {
			g.op("movq $%s, %%rax", e.Global.Name)
		}
		return nil
	case ExprIndex:
		// Base address/value, then scaled index.
		base := e.L
		if decay(base.Type).Kind != TypePtr {
			return errf(e.Line, "bad index base")
		}
		if err := g.expr(base); err != nil { // arrays yield their address
			return err
		}
		g.op("pushq %%rax")
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.op("popq %%rcx")
		g.op("leaq (%%rcx,%%rax,8), %%rax")
		return nil
	case ExprUnary:
		if e.Op == "*" {
			return g.expr(e.L)
		}
	}
	return errf(e.Line, "not an lvalue in codegen")
}

func (g *gen) binary(e *Expr) error {
	switch e.Op {
	case "&&":
		fail := g.label()
		end := g.label()
		if err := g.expr(e.L); err != nil {
			return err
		}
		g.op("cmpq $0, %%rax")
		g.op("je %s", fail)
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.op("cmpq $0, %%rax")
		g.op("je %s", fail)
		g.op("movq $1, %%rax")
		g.op("jmp %s", end)
		g.emit(fail + ":")
		g.op("movq $0, %%rax")
		g.emit(end + ":")
		return nil
	case "||":
		ok := g.label()
		end := g.label()
		if err := g.expr(e.L); err != nil {
			return err
		}
		g.op("cmpq $0, %%rax")
		g.op("jne %s", ok)
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.op("cmpq $0, %%rax")
		g.op("jne %s", ok)
		g.op("movq $0, %%rax")
		g.op("jmp %s", end)
		g.emit(ok + ":")
		g.op("movq $1, %%rax")
		g.emit(end + ":")
		return nil
	}

	lt, rt := decay(e.L.Type), decay(e.R.Type)
	if err := g.expr(e.L); err != nil {
		return err
	}
	g.op("pushq %%rax")
	if err := g.expr(e.R); err != nil {
		return err
	}
	g.op("movq %%rax, %%rcx")
	g.op("popq %%rax")
	// rax = L, rcx = R.
	g.binopRegs(e, lt, rt)
	return nil
}

// binopRegs emits the operator with L in rax and R in rcx, result in rax.
func (g *gen) binopRegs(e *Expr, lt, rt *Type) {
	switch e.Op {
	case "+":
		switch {
		case lt.Kind == TypePtr && rt.IsInteger():
			g.op("shlq $3, %%rcx")
		case rt.Kind == TypePtr && lt.IsInteger():
			g.op("shlq $3, %%rax")
		}
		g.op("addq %%rcx, %%rax")
	case "-":
		switch {
		case lt.Kind == TypePtr && rt.IsInteger():
			g.op("shlq $3, %%rcx")
			g.op("subq %%rcx, %%rax")
		case lt.Kind == TypePtr && rt.Kind == TypePtr:
			g.op("subq %%rcx, %%rax")
			g.op("sarq $3, %%rax")
		default:
			g.op("subq %%rcx, %%rax")
		}
	case "*":
		g.op("imulq %%rcx, %%rax")
	case "/", "%":
		if arith(lt, rt).IsUnsigned() {
			g.op("movq $0, %%rdx")
			g.op("divq %%rcx")
		} else {
			g.op("cqto")
			g.op("idivq %%rcx")
		}
		if e.Op == "%" {
			g.op("movq %%rdx, %%rax")
		}
	case "&":
		g.op("andq %%rcx, %%rax")
	case "|":
		g.op("orq %%rcx, %%rax")
	case "^":
		g.op("xorq %%rcx, %%rax")
	case "<<":
		g.op("shlq %%rcx, %%rax")
	case ">>":
		if lt.IsUnsigned() {
			g.op("shrq %%rcx, %%rax")
		} else {
			g.op("sarq %%rcx, %%rax")
		}
	case "==", "!=", "<", "<=", ">", ">=":
		unsigned := lt.IsUnsigned() || rt.IsUnsigned()
		g.op("cmpq %%rcx, %%rax")
		g.op("set%s %%rax", setCond(e.Op, unsigned))
	}
}

func (g *gen) assign(e *Expr) error {
	if e.Op == "" {
		// Simple assignment: value first, then address.
		if err := g.expr(e.R); err != nil {
			return err
		}
		// Fast path: direct store to a scalar variable.
		if e.L.Kind == ExprVar && e.L.Type.Kind != TypeArray {
			if e.L.Local != nil {
				g.op("movq %%rax, %d(%%rbp)", e.L.Local.Offset)
			} else {
				g.op("movq %%rax, %s", e.L.Global.Name)
			}
			return nil
		}
		g.op("pushq %%rax")
		if err := g.lvalueAddr(e.L); err != nil {
			return err
		}
		g.op("popq %%rcx")
		g.op("movq %%rcx, (%%rax)")
		g.op("movq %%rcx, %%rax")
		return nil
	}
	// Compound assignment: evaluate the address once.
	if err := g.lvalueAddr(e.L); err != nil {
		return err
	}
	g.op("pushq %%rax")
	if err := g.expr(e.R); err != nil {
		return err
	}
	g.op("movq %%rax, %%rcx")
	g.op("movq (%%rsp), %%rax") // the address
	g.op("movq (%%rax), %%rax") // current value
	fake := &Expr{Kind: ExprBinary, Op: e.Op, Line: e.Line, L: e.L, R: e.R}
	g.binopRegs(fake, decay(e.L.Type), decay(e.R.Type))
	g.op("popq %%rdx")
	g.op("movq %%rax, (%%rdx)")
	return nil
}

func (g *gen) call(e *Expr) error {
	// Evaluate arguments left to right onto the stack, then pop them into
	// the argument registers in reverse.
	for _, a := range e.Args {
		if err := g.expr(a); err != nil {
			return err
		}
		g.op("pushq %%rax")
	}
	for i := len(e.Args) - 1; i >= 0; i-- {
		g.op("popq %s", argRegs[i])
	}
	if g.mode == ModeFork {
		g.op("fork %s", e.Name)
	} else {
		g.op("call %s", e.Name)
	}
	return nil
}
