package minic

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/isa"
)

// This file is the programmatic construction surface of the package: the
// fuzz generator (internal/fuzzgen) builds mini-C ASTs directly — no source
// text in the loop — and compiles or renders them with the helpers below.
// The node types themselves (Expr, Stmt, Function, GlobalVar, LocalVar) are
// already exported with exported fields; what clients cannot reach are the
// type singletons and the Program's name indices, which these helpers manage.

// VoidType returns the void type.
func VoidType() *Type { return tyVoid }

// LongType returns the signed 64-bit integer type.
func LongType() *Type { return tyLong }

// ULongType returns the unsigned 64-bit integer type.
func ULongType() *Type { return tyULong }

// ArrayType returns the type "array of n elem".
func ArrayType(elem *Type, n int64) *Type { return arrayOf(elem, n) }

// NewProgram returns an empty Program ready for programmatic construction
// with AddGlobal and AddFunction.
func NewProgram() *Program {
	return &Program{
		funcByName: make(map[string]*Function),
		globByName: make(map[string]*GlobalVar),
	}
}

// AddGlobal appends a module-level variable, maintaining the name index the
// checker resolves against.
func (p *Program) AddGlobal(g *GlobalVar) error {
	if _, dup := p.globByName[g.Name]; dup {
		return errf(0, "duplicate global %q", g.Name)
	}
	if p.funcByName[g.Name] != nil {
		return errf(0, "name %q is both a function and a global", g.Name)
	}
	p.Globals = append(p.Globals, g)
	p.globByName[g.Name] = g
	return nil
}

// AddFunction appends a function definition, maintaining the name index.
func (p *Program) AddFunction(f *Function) error {
	if _, dup := p.funcByName[f.Name]; dup {
		return errf(f.Line, "duplicate function %q", f.Name)
	}
	if p.globByName[f.Name] != nil {
		return errf(f.Line, "name %q is both a function and a global", f.Name)
	}
	p.Functions = append(p.Functions, f)
	p.funcByName[f.Name] = f
	return nil
}

// CompileAST checks an in-memory AST and compiles it through the assembler's
// Builder — Compile without the front end, for programs built
// programmatically rather than parsed. Check annotates the AST in place
// (types, frame offsets); the input must be a freshly built or freshly parsed
// program. A form the Builder refuses is the code generator's fault, and is
// reported as an internal error.
func CompileAST(prog *Program, mode Mode) (*isa.Program, error) {
	if err := Check(prog); err != nil {
		return nil, err
	}
	b := asm.NewBuilder()
	if err := generate(b, prog, mode); err != nil {
		return nil, err
	}
	p, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("minic: internal error assembling generated code: %w", err)
	}
	return p, nil
}
