package minic

import "sync"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks  *tokens
	pos   int
	prog  *Program
	depth int // statements and expressions open around the current token
}

// maxNesting bounds how deep statements and expressions nest, a chain of
// operators or subscripts counting one level a link. The parser recurses
// once per level, and so do the checker, the code generator and the
// interpreter over the tree it builds; a goroutine stack that outgrows its
// limit is a crash no caller can recover from, so a source that nests deeper
// is refused here, with a position. (A refusal abandons the parse, so only
// the productions that succeed give their levels back.)
const maxNesting = 256

// enter opens one nesting level.
func (p *parser) enter() error {
	if p.depth++; p.depth > maxNesting {
		return errTok(p.tok(), "statements or expressions nested deeper than %d", maxNesting)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// nested parses one production a level deeper.
func (p *parser) nested(production func() (*Expr, error)) (*Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return production()
}

func (p *parser) tok() token { return p.toks.at(p.pos) }

func (p *parser) accept(text string) bool {
	t := p.tok()
	if (t.kind == tokPunct || t.kind == tokKeyword) && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return errTok(p.tok(), "expected %q, got %q", text, p.tok().text)
	}
	return nil
}

// tokenLists holds token lists between parses. Nothing outlives the parse
// that lexed them (the tree keeps copies of what it needs, and its strings
// are slices of the source), so each parse lexes into a list an earlier one
// gave back.
var tokenLists = sync.Pool{New: func() any { return new(tokens) }}

// Parse parses a translation unit (without semantic checking).
func Parse(src string) (*Program, error) {
	toks := tokenLists.Get().(*tokens)
	defer func() {
		toks.reset()
		tokenLists.Put(toks)
	}()
	if err := lex(src, toks); err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: &Program{
		funcByName: make(map[string]*Function),
		globByName: make(map[string]*GlobalVar),
	}}
	for p.tok().kind != tokEOF {
		if err := p.topLevel(); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

// baseType parses `long`, `unsigned long`, or `void`, returning nil on no
// match (position restored).
func (p *parser) baseType() *Type {
	start := p.pos
	if p.accept("void") {
		return tyVoid
	}
	if p.accept("unsigned") {
		if p.accept("long") {
			return tyULong
		}
		p.pos = start
		return nil
	}
	if p.accept("long") {
		return tyLong
	}
	return nil
}

// declarator parses pointer stars and a name: `*...* name`.
func (p *parser) declarator(base *Type) (*Type, string, error) {
	ty := base
	for p.accept("*") {
		ty = ptrTo(ty)
	}
	t := p.tok()
	if t.kind != tokIdent {
		return nil, "", errTok(t, "expected identifier, got %q", t.text)
	}
	p.pos++
	return ty, t.text, nil
}

func (p *parser) topLevel() error {
	line := p.tok().line
	base := p.baseType()
	if base == nil {
		return errTok(p.tok(), "expected declaration, got %q", p.tok().text)
	}
	ty, name, err := p.declarator(base)
	if err != nil {
		return err
	}
	if p.accept("(") {
		return p.functionRest(ty, name, line)
	}
	// Global variable(s).
	for {
		g := &GlobalVar{Name: name, Type: ty}
		if p.accept("[") {
			n := p.tok()
			if n.kind != tokNumber {
				return errTok(n, "array length must be a constant")
			}
			p.pos++
			if err := p.expect("]"); err != nil {
				return err
			}
			if ty.Kind == TypeVoid {
				return errf(line, "array of void")
			}
			g.Type = arrayOf(ty, int64(n.num))
		}
		if p.accept("=") {
			v := p.tok()
			neg := false
			if v.kind == tokPunct && v.text == "-" {
				neg = true
				p.pos++
				v = p.tok()
			}
			if v.kind != tokNumber {
				return errTok(v, "global initialiser must be a constant")
			}
			p.pos++
			g.Init = v.num
			if neg {
				g.Init = -g.Init
			}
		}
		if g.Type.Kind == TypeVoid {
			return errf(line, "variable of type void")
		}
		if _, dup := p.prog.globByName[g.Name]; dup {
			return errf(line, "duplicate global %q", g.Name)
		}
		p.prog.Globals = append(p.prog.Globals, g)
		p.prog.globByName[g.Name] = g
		if p.accept(",") {
			ty, name, err = p.declarator(base)
			if err != nil {
				return err
			}
			continue
		}
		return p.expect(";")
	}
}

func (p *parser) functionRest(ret *Type, name string, line int) error {
	f := &Function{Name: name, Ret: ret, Line: line}
	if !p.accept(")") {
		if p.accept("void") {
			if err := p.expect(")"); err != nil {
				return err
			}
		} else {
			for {
				base := p.baseType()
				if base == nil {
					return errTok(p.tok(), "expected parameter type, got %q", p.tok().text)
				}
				ty, pname, err := p.declarator(base)
				if err != nil {
					return err
				}
				// Array parameters decay to pointers.
				if p.accept("[") {
					if p.tok().kind == tokNumber {
						p.pos++
					}
					if err := p.expect("]"); err != nil {
						return err
					}
					ty = ptrTo(ty)
				}
				if ty.Kind == TypeVoid {
					return errf(line, "parameter of type void")
				}
				v := &LocalVar{Name: pname, Type: ty, Param: len(f.Params)}
				f.Params = append(f.Params, v)
				f.Locals = append(f.Locals, v)
				if p.accept(",") {
					continue
				}
				if err := p.expect(")"); err != nil {
					return err
				}
				break
			}
		}
	}
	if len(f.Params) > 6 {
		return errf(line, "function %q has %d parameters; at most 6 supported", name, len(f.Params))
	}
	if _, dup := p.prog.funcByName[name]; dup {
		return errf(line, "duplicate function %q", name)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	f.Body = body
	p.prog.Functions = append(p.prog.Functions, f)
	p.prog.funcByName[name] = f
	return nil
}

// block parses statements until the closing brace (already past '{').
func (p *parser) block() ([]*Stmt, error) {
	var out []*Stmt
	for !p.accept("}") {
		if p.tok().kind == tokEOF {
			return nil, errTok(p.tok(), "unexpected end of file in block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

// statement returns one or more statements (a declaration list expands).
func (p *parser) statement() ([]*Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	line := p.tok().line
	switch {
	case p.accept("{"):
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return []*Stmt{{Kind: StmtBlock, Line: line, Body: body}}, nil
	case p.accept(";"):
		return []*Stmt{{Kind: StmtBlock, Line: line}}, nil
	case p.accept("if"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		s := &Stmt{Kind: StmtIf, Line: line, E: cond, Body: body}
		if p.accept("else") {
			els, err := p.statement()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
		return []*Stmt{s}, nil
	case p.accept("while"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		return []*Stmt{{Kind: StmtWhile, Line: line, E: cond, Body: body}}, nil
	case p.accept("for"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		s := &Stmt{Kind: StmtFor, Line: line}
		if !p.accept(";") {
			init, err := p.forInit(line)
			if err != nil {
				return nil, err
			}
			s.Init = init
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		if !p.accept(";") {
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.E = cond
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		if !p.accept(")") {
			post, err := p.simpleStmt()
			if err != nil {
				return nil, err
			}
			s.Post = post
			if err := p.expect(")"); err != nil {
				return nil, err
			}
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.Body = body
		return []*Stmt{s}, nil
	case p.accept("return"):
		s := &Stmt{Kind: StmtReturn, Line: line}
		if !p.accept(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.E = e
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		return []*Stmt{s}, nil
	case p.accept("break"):
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []*Stmt{{Kind: StmtBreak, Line: line}}, nil
	case p.accept("continue"):
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return []*Stmt{{Kind: StmtContinue, Line: line}}, nil
	}
	// Declaration?
	if base := p.baseType(); base != nil {
		var out []*Stmt
		for {
			ty, name, err := p.declarator(base)
			if err != nil {
				return nil, err
			}
			if p.accept("[") {
				n := p.tok()
				if n.kind != tokNumber {
					return nil, errTok(n, "array length must be a constant")
				}
				p.pos++
				if err := p.expect("]"); err != nil {
					return nil, err
				}
				ty = arrayOf(ty, int64(n.num))
			}
			if ty.Kind == TypeVoid {
				return nil, errf(line, "variable of type void")
			}
			v := &LocalVar{Name: name, Type: ty, Param: -1}
			s := &Stmt{Kind: StmtDecl, Line: line, Decl: v}
			if p.accept("=") {
				init, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				s.DeclInit = init
			}
			out = append(out, s)
			if p.accept(",") {
				continue
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	// Expression statement.
	s, err := p.simpleStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return []*Stmt{s}, nil
}

// forInit parses a for-loop initialiser: either a single declaration with an
// initialiser (C99 style) or an expression statement.
func (p *parser) forInit(line int) (*Stmt, error) {
	if base := p.baseType(); base != nil {
		ty, name, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		if ty.Kind == TypeVoid {
			return nil, errf(line, "variable of type void")
		}
		v := &LocalVar{Name: name, Type: ty, Param: -1}
		s := &Stmt{Kind: StmtDecl, Line: line, Decl: v}
		if p.accept("=") {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			s.DeclInit = init
		}
		return s, nil
	}
	return p.simpleStmt()
}

// simpleStmt parses an expression statement (no trailing ';').
func (p *parser) simpleStmt() (*Stmt, error) {
	line := p.tok().line
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Stmt{Kind: StmtExpr, Line: line, E: e}, nil
}

// Expression grammar, standard C precedence.

func (p *parser) expr() (*Expr, error) { return p.assignExpr() }

// assignExpr is a level of nesting: it calls itself, and every cycle of the
// expression grammar passes through it except a ternary's else branch and a
// prefix operator's operand, which are parsed nested.
func (p *parser) assignExpr() (*Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	t := p.tok()
	if t.kind == tokPunct {
		switch t.text {
		case "=":
			p.pos++
			r, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: ExprAssign, Line: t.line, L: l, R: r}, nil
		case "+=", "-=", "*=", "/=", "%=":
			p.pos++
			r, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: ExprAssign, Op: t.text[:1], Line: t.line, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) condExpr() (*Expr, error) {
	c, err := p.binExpr(0)
	if err != nil {
		return nil, err
	}
	if p.accept("?") {
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		b, err := p.nested(p.condExpr)
		if err != nil {
			return nil, err
		}
		return &Expr{Kind: ExprCond, Line: c.Line, C: c, L: a, R: b}, nil
	}
	return c, nil
}

// binary operator precedence levels, low to high.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) binExpr(level int) (*Expr, error) {
	if level >= len(precLevels) {
		return p.unaryExpr()
	}
	l, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for links := 0; ; links++ {
		t := p.tok()
		matched := false
		if t.kind == tokPunct {
			for _, op := range precLevels[level] {
				if t.text == op {
					matched = true
					break
				}
			}
		}
		if !matched {
			p.depth -= links
			return l, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.pos++
		r, err := p.binExpr(level + 1)
		if err != nil {
			return nil, err
		}
		l = &Expr{Kind: ExprBinary, Op: t.text, Line: t.line, L: l, R: r}
	}
}

func (p *parser) unaryExpr() (*Expr, error) {
	t := p.tok()
	if t.kind == tokPunct {
		switch t.text {
		case "-", "!", "~", "*", "&":
			p.pos++
			e, err := p.nested(p.unaryExpr)
			if err != nil {
				return nil, err
			}
			return &Expr{Kind: ExprUnary, Op: t.text, Line: t.line, L: e}, nil
		case "+":
			p.pos++
			return p.nested(p.unaryExpr)
		case "++", "--":
			// Pre-increment sugar: ++x => x = x + 1.
			p.pos++
			e, err := p.nested(p.unaryExpr)
			if err != nil {
				return nil, err
			}
			one := &Expr{Kind: ExprNum, Num: 1, Line: t.line}
			op := "+"
			if t.text == "--" {
				op = "-"
			}
			return &Expr{Kind: ExprAssign, Op: op, Line: t.line, L: e, R: one}, nil
		}
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (*Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for links := 0; ; links++ {
		t := p.tok()
		if t.kind != tokPunct || (t.text != "[" && t.text != "(") {
			p.depth -= links
			return e, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		switch t.text {
		case "[":
			p.pos++
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			e = &Expr{Kind: ExprIndex, Line: t.line, L: e, R: idx}
		case "(":
			if e.Kind != ExprVar {
				return nil, errTok(t, "call of non-function expression")
			}
			p.pos++
			call := &Expr{Kind: ExprCall, Name: e.Name, Line: t.line}
			if !p.accept(")") {
				for {
					a, err := p.assignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(",") {
						continue
					}
					if err := p.expect(")"); err != nil {
						return nil, err
					}
					break
				}
			}
			e = call
		}
	}
}

func (p *parser) primaryExpr() (*Expr, error) {
	t := p.tok()
	switch t.kind {
	case tokNumber:
		p.pos++
		return &Expr{Kind: ExprNum, Num: t.num, Line: t.line}, nil
	case tokIdent:
		p.pos++
		return &Expr{Kind: ExprVar, Name: t.text, Line: t.line}, nil
	case tokPunct:
		if t.text == "(" {
			p.pos++
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, errTok(t, "unexpected token %q", t.text)
}
