package minic

import (
	"strconv"

	"repro/internal/asm"
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

var argRegs = [...]isa.Reg{isa.RDI, isa.RSI, isa.RDX, isa.RCX, isa.R8, isa.R9}

// The operands the generated code names.
var (
	rax = isa.RegOp(isa.RAX)
	rcx = isa.RegOp(isa.RCX)
	rdx = isa.RegOp(isa.RDX)
	rbp = isa.RegOp(isa.RBP)
	rsp = isa.RegOp(isa.RSP)
)

// at is the memory operand disp(base).
func at(disp int64, base isa.Reg) isa.Operand { return isa.MemBase(disp, base) }

// global is the memory operand holding the global named name, or with
// addr its address as an immediate.
func global(name string, addr bool) isa.Operand {
	o := isa.MemOp(0, isa.NoReg, isa.NoReg, 1)
	if addr {
		o = isa.ImmOp(0)
	}
	o.Sym = name
	return o
}

// gen is the code generator state: it emits a checked program's code into
// an assembler Builder.
type gen struct {
	mode   Mode
	b      *asm.Builder
	fn     *Function
	nlabel int
	brk    []string // break targets
	cont   []string // continue targets
	name   []byte   // scratch for label names
}

// Compile parses, checks and compiles src in one step: Parse, then
// CompileAST.
func Compile(src string, mode Mode) (*isa.Program, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileAST(prog, mode)
}

// generate emits a checked program's code and data into b.
func generate(b *asm.Builder, prog *Program, mode Mode) error {
	g := &gen{mode: mode, b: b}
	for _, gv := range prog.Globals {
		if prog.funcByName[gv.Name] != nil {
			return errf(0, "name %q is both a function and a global", gv.Name)
		}
	}
	// Driver: run main and halt. In fork mode the final hlt is the
	// continuation section of the whole program.
	b.Label("_start")
	g.jump(g.callOp(), "main")
	g.op(isa.HLT)
	for _, f := range prog.Functions {
		if err := g.function(f); err != nil {
			return err
		}
	}
	for _, gv := range prog.Globals {
		b.Data(gv.Name)
		if gv.Type.Kind == TypeArray {
			b.Space(uint64(gv.Type.Size()))
		} else {
			b.Quad(int64(gv.Init))
		}
	}
	return nil
}

// op emits an instruction without operands.
func (g *gen) op(op isa.Op) { g.b.Emit(isa.Instruction{Op: op}) }

// op1 emits a one-operand instruction on dst.
func (g *gen) op1(op isa.Op, dst isa.Operand) { g.b.Emit(isa.Instruction{Op: op, Dst: dst}) }

// op2 emits a two-operand instruction.
func (g *gen) op2(op isa.Op, src, dst isa.Operand) {
	g.b.Emit(isa.Instruction{Op: op, Src: src, Dst: dst})
}

func (g *gen) push(src isa.Operand) { g.b.Emit(isa.Instruction{Op: isa.PUSH, Src: src}) }

// jump emits a jmp, call or fork to label.
func (g *gen) jump(op isa.Op, label string) { g.b.Emit(isa.Instruction{Op: op, Label: label}) }

// jcc emits a conditional jump to label.
func (g *gen) jcc(cc isa.Cond, label string) {
	g.b.Emit(isa.Instruction{Op: isa.Jcc, Cond: cc, Label: label})
}

// setcc sets %rax to whether cc holds.
func (g *gen) setcc(cc isa.Cond) { g.b.Emit(isa.Instruction{Op: isa.SETcc, Cond: cc, Dst: rax}) }

// callOp is the mode's call instruction.
func (g *gen) callOp() isa.Op {
	if g.mode == ModeFork {
		return isa.FORK
	}
	return isa.CALL
}

// label returns a fresh local label, .L<function>_<n>.
func (g *gen) label() string {
	g.nlabel++
	g.name = append(append(append(g.name[:0], ".L"...), g.fn.Name...), '_')
	g.name = strconv.AppendInt(g.name, int64(g.nlabel), 10)
	return string(g.name)
}

func (g *gen) function(f *Function) error {
	g.fn = f
	g.b.Label(f.Name)
	g.push(rbp)
	g.op2(isa.MOV, rsp, rbp)
	if f.FrameSize > 0 {
		g.op2(isa.SUB, isa.ImmOp(f.FrameSize), rsp)
	}
	for i, p := range f.Params {
		g.op2(isa.MOV, isa.RegOp(argRegs[i]), at(p.Offset, isa.RBP))
	}
	if err := g.stmts(f.Body); err != nil {
		return err
	}
	// Fall-through return (void functions, or main without return).
	g.epilogue()
	return nil
}

func (g *gen) epilogue() {
	g.op2(isa.MOV, rbp, rsp)
	g.op1(isa.POP, rbp)
	if g.mode == ModeFork {
		g.op(isa.ENDFORK)
	} else {
		g.op(isa.RET)
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
			g.op2(isa.MOV, rax, at(s.Decl.Offset, isa.RBP))
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
			g.jump(isa.JMP, end)
			g.b.Label(els)
			if err := g.stmts(s.Else); err != nil {
				return err
			}
		}
		g.b.Label(end)
		return nil
	case StmtWhile:
		top := g.label()
		end := g.label()
		g.b.Label(top)
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
		g.jump(isa.JMP, top)
		g.b.Label(end)
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
		g.b.Label(top)
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
		g.b.Label(post)
		if s.Post != nil {
			if err := g.stmt(s.Post); err != nil {
				return err
			}
		}
		g.jump(isa.JMP, top)
		g.b.Label(end)
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
		g.jump(isa.JMP, g.brk[len(g.brk)-1])
		return nil
	case StmtContinue:
		g.jump(isa.JMP, g.cont[len(g.cont)-1])
		return nil
	}
	return errf(s.Line, "unknown statement in codegen")
}

// condJump evaluates e and jumps to target when it is false. Comparisons at
// the top level fuse into cmp + jcc; everything else tests against zero.
func (g *gen) condJump(e *Expr, target string) error {
	if e.Kind == ExprBinary {
		unsigned := decay(e.L.Type).IsUnsigned() || decay(e.R.Type).IsUnsigned()
		if cc, ok := comparison(e.Op, unsigned); ok {
			if err := g.operands(e); err != nil {
				return err
			}
			g.op2(isa.CMP, rcx, rax)
			g.jcc(inverse[cc], target)
			return nil
		}
	}
	if err := g.expr(e); err != nil {
		return err
	}
	g.op2(isa.CMP, isa.ImmOp(0), rax)
	g.jcc(isa.CondE, target)
	return nil
}

// comparison returns the condition under which the comparison op holds of
// signed or, if unsigned, of unsigned operands; ok is false when op is not a
// comparison.
func comparison(op string, unsigned bool) (cc isa.Cond, ok bool) {
	switch op {
	case "==":
		return isa.CondE, true
	case "!=":
		return isa.CondNE, true
	case "<":
		cc = isa.CondL
	case "<=":
		cc = isa.CondLE
	case ">":
		cc = isa.CondG
	case ">=":
		cc = isa.CondGE
	default:
		return 0, false
	}
	if unsigned {
		cc = unsignedCond[cc]
	}
	return cc, true
}

// unsignedCond is the unsigned form of each signed relation.
var unsignedCond = [isa.NumConds]isa.Cond{
	isa.CondL: isa.CondB, isa.CondLE: isa.CondBE, isa.CondG: isa.CondA, isa.CondGE: isa.CondAE,
}

// inverse is the condition that holds exactly when its index does not.
var inverse = [isa.NumConds]isa.Cond{
	isa.CondE: isa.CondNE, isa.CondNE: isa.CondE,
	isa.CondA: isa.CondBE, isa.CondBE: isa.CondA,
	isa.CondAE: isa.CondB, isa.CondB: isa.CondAE,
	isa.CondG: isa.CondLE, isa.CondLE: isa.CondG,
	isa.CondGE: isa.CondL, isa.CondL: isa.CondGE,
	isa.CondS: isa.CondNS, isa.CondNS: isa.CondS,
}

// expr evaluates e into %rax. Temporaries are kept on the stack, so nested
// calls (and forks) are safe: the continuation reloads them through renamed
// stack memory.
func (g *gen) expr(e *Expr) error {
	switch e.Kind {
	case ExprNum:
		g.op2(isa.MOV, isa.ImmOp(int64(e.Num)), rax)
		return nil
	case ExprVar:
		if e.Type.Kind == TypeArray {
			return g.lvalueAddr(e) // arrays decay to their address
		}
		if e.Local != nil {
			g.op2(isa.MOV, at(e.Local.Offset, isa.RBP), rax)
		} else {
			g.op2(isa.MOV, global(e.Global.Name, false), rax)
		}
		return nil
	case ExprUnary:
		switch e.Op {
		case "&":
			return g.lvalueAddr(e.L)
		case "-", "~", "!", "*":
			if err := g.expr(e.L); err != nil {
				return err
			}
		}
		switch e.Op {
		case "-":
			g.op1(isa.NEG, rax)
		case "~":
			g.op1(isa.NOT, rax)
		case "!":
			g.op2(isa.CMP, isa.ImmOp(0), rax)
			g.setcc(isa.CondE)
		case "*":
			if e.Type.Kind != TypeArray {
				g.op2(isa.MOV, at(0, isa.RAX), rax)
			}
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
			g.op2(isa.MOV, at(0, isa.RAX), rax)
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
		g.jump(isa.JMP, end)
		g.b.Label(els)
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.b.Label(end)
		return nil
	}
	return errf(e.Line, "unknown expression in codegen")
}

// lvalueAddr evaluates the address of an lvalue (or array) into %rax.
func (g *gen) lvalueAddr(e *Expr) error {
	switch e.Kind {
	case ExprVar:
		if e.Local != nil {
			g.op2(isa.LEA, at(e.Local.Offset, isa.RBP), rax)
		} else {
			g.op2(isa.MOV, global(e.Global.Name, true), rax)
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
		g.push(rax)
		if err := g.expr(e.R); err != nil {
			return err
		}
		g.op1(isa.POP, rcx)
		g.op2(isa.LEA, isa.MemOp(0, isa.RCX, isa.RAX, 8), rax)
		return nil
	case ExprUnary:
		if e.Op == "*" {
			return g.expr(e.L)
		}
	}
	return errf(e.Line, "not an lvalue in codegen")
}

// operands evaluates e's left operand into %rax and its right one into
// %rcx, the left one kept on the stack meanwhile.
func (g *gen) operands(e *Expr) error {
	if err := g.expr(e.L); err != nil {
		return err
	}
	g.push(rax)
	if err := g.expr(e.R); err != nil {
		return err
	}
	g.op2(isa.MOV, rax, rcx)
	g.op1(isa.POP, rax)
	return nil
}

func (g *gen) binary(e *Expr) error {
	if e.Op == "&&" || e.Op == "||" {
		// Either operand decides when it is zero (&&) or not (||).
		decides, value := isa.CondE, int64(0)
		if e.Op == "||" {
			decides, value = isa.CondNE, 1
		}
		decided := g.label()
		end := g.label()
		for _, x := range [2]*Expr{e.L, e.R} {
			if err := g.expr(x); err != nil {
				return err
			}
			g.op2(isa.CMP, isa.ImmOp(0), rax)
			g.jcc(decides, decided)
		}
		g.op2(isa.MOV, isa.ImmOp(1-value), rax)
		g.jump(isa.JMP, end)
		g.b.Label(decided)
		g.op2(isa.MOV, isa.ImmOp(value), rax)
		g.b.Label(end)
		return nil
	}
	if err := g.operands(e); err != nil {
		return err
	}
	g.binopRegs(e.Op, decay(e.L.Type), decay(e.R.Type))
	return nil
}

// binopRegs emits the operator with L in rax and R in rcx, result in rax.
func (g *gen) binopRegs(op string, lt, rt *Type) {
	switch op {
	case "+":
		switch {
		case lt.Kind == TypePtr && rt.IsInteger():
			g.op2(isa.SHL, isa.ImmOp(3), rcx)
		case rt.Kind == TypePtr && lt.IsInteger():
			g.op2(isa.SHL, isa.ImmOp(3), rax)
		}
		g.op2(isa.ADD, rcx, rax)
	case "-":
		switch {
		case lt.Kind == TypePtr && rt.IsInteger():
			g.op2(isa.SHL, isa.ImmOp(3), rcx)
			g.op2(isa.SUB, rcx, rax)
		case lt.Kind == TypePtr && rt.Kind == TypePtr:
			g.op2(isa.SUB, rcx, rax)
			g.op2(isa.SAR, isa.ImmOp(3), rax)
		default:
			g.op2(isa.SUB, rcx, rax)
		}
	case "*":
		g.op2(isa.IMUL, rcx, rax)
	case "/", "%":
		if arith(lt, rt).IsUnsigned() {
			g.op2(isa.MOV, isa.ImmOp(0), rdx)
			g.op1(isa.DIV, rcx)
		} else {
			g.op(isa.CQTO)
			g.op1(isa.IDIV, rcx)
		}
		if op == "%" {
			g.op2(isa.MOV, rdx, rax)
		}
	case "&":
		g.op2(isa.AND, rcx, rax)
	case "|":
		g.op2(isa.OR, rcx, rax)
	case "^":
		g.op2(isa.XOR, rcx, rax)
	case "<<":
		g.op2(isa.SHL, rcx, rax)
	case ">>":
		if lt.IsUnsigned() {
			g.op2(isa.SHR, rcx, rax)
		} else {
			g.op2(isa.SAR, rcx, rax)
		}
	default:
		if cc, ok := comparison(op, lt.IsUnsigned() || rt.IsUnsigned()); ok {
			g.op2(isa.CMP, rcx, rax)
			g.setcc(cc)
		}
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
				g.op2(isa.MOV, rax, at(e.L.Local.Offset, isa.RBP))
			} else {
				g.op2(isa.MOV, rax, global(e.L.Global.Name, false))
			}
			return nil
		}
		g.push(rax)
		if err := g.lvalueAddr(e.L); err != nil {
			return err
		}
		g.op1(isa.POP, rcx)
		g.op2(isa.MOV, rcx, at(0, isa.RAX))
		g.op2(isa.MOV, rcx, rax)
		return nil
	}
	// Compound assignment: evaluate the address once.
	if err := g.lvalueAddr(e.L); err != nil {
		return err
	}
	g.push(rax)
	if err := g.expr(e.R); err != nil {
		return err
	}
	g.op2(isa.MOV, rax, rcx)
	g.op2(isa.MOV, at(0, isa.RSP), rax) // the address
	g.op2(isa.MOV, at(0, isa.RAX), rax) // current value
	g.binopRegs(e.Op, decay(e.L.Type), decay(e.R.Type))
	g.op1(isa.POP, rdx)
	g.op2(isa.MOV, rax, at(0, isa.RDX))
	return nil
}

func (g *gen) call(e *Expr) error {
	// Evaluate arguments left to right onto the stack, then pop them into
	// the argument registers in reverse.
	for _, a := range e.Args {
		if err := g.expr(a); err != nil {
			return err
		}
		g.push(rax)
	}
	for i := len(e.Args) - 1; i >= 0; i-- {
		g.op1(isa.POP, isa.RegOp(argRegs[i]))
	}
	g.jump(g.callOp(), e.Name)
	return nil
}
