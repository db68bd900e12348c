// Package gofront is the compile-from-Go front end of the kernel suite: it
// scans Go source files for //repro:kernel annotations, lowers the annotated
// entry function and its helpers from a checked Go subset into the
// internal/minic AST, and derives the reference checksum by running that
// same AST in pure Go: each lowering is compiled to Go closures once, on its
// first Ref, and kept with it.
//
// The point is single-definition kernels. A hand-written kernel needs three
// artifacts that nothing forces to agree — a mini-C source template, an input
// generator, and a pure-Go reference checksum; with gofront all three derive
// from one annotated Go file:
//
//   - the machine program is minic.Compile of the lowered source
//     (minic.Format of the lowered AST is the canonical surface, so the
//     lowering is inspectable and pinnable byte for byte), and
//   - the reference checksum is a run of the very same AST, compiled to
//     closures, so the program and its reference cannot drift apart, and
//   - the input arrays come from //repro:array annotations (distribution +
//     length expression), not from hand-kept generator code.
//
// Annotation grammar (one kernel per file):
//
//	//repro:kernel id=2 name=comparisonSort/quickSort minn=2
//	//repro:const Shift = 64 - log2(pow2(4*n))
//	func entry() uint64 { ... }        // doc comment carries the annotations
//
//	//repro:array len=n gen=u32
//	var a []uint64                     // one annotated var per array
//
// Annotation expressions (array lengths, //repro:const values) are evaluated
// over the dataset size n with + - * / % and the helpers pow2(x) (smallest
// power of two >= x, minimum 2) and log2(x) (exact, x must be a power of
// two). Inside the kernel body the identifier N and every //repro:const name
// lower to integer literals; expressions built only from those constants and
// literals are folded, which is how one Go definition specialises to the
// per-n mini-C programs the rest of the stack expects.
package gofront

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"sync"

	"repro/internal/minic"
)

// GenKind selects the input distribution of an annotated array.
type GenKind string

// Input distributions. The zero value means "work array": zero-initialised
// storage with no generated input words.
const (
	GenNone GenKind = ""     // no inputs: scratch/output storage
	GenU32  GenKind = "u32"  // uniform random words in [0, 2^32)
	GenModN GenKind = "modn" // uniform random words in [0, n)
)

// Array is one annotated global array of a kernel.
type Array struct {
	// Name is the mini-C (and Go) identifier.
	Name string
	// Len is the length expression over the dataset size n.
	Len Expr
	// Gen is the input distribution (GenNone for work arrays).
	Gen GenKind
}

// Const is one named //repro:const compile-time constant.
type Const struct {
	Name string
	Expr Expr
}

// Kernel is one scanned annotated-Go kernel: the parsed file plus its
// annotations, ready to lower per dataset size.
type Kernel struct {
	// ID is the benchmark number (the paper's Table 1 numbering).
	ID int
	// Name is the "suite/implementation" label.
	Name string
	// MinN is the smallest dataset size the kernel supports.
	MinN int
	// File is the scanned file name, for diagnostics and catalogs.
	File string
	// Arrays are the annotated global arrays, in declaration order.
	Arrays []Array
	// Consts are the //repro:const definitions, in annotation order.
	Consts []Const

	fset    *token.FileSet
	decls   []ast.Decl    // globals and functions, file order
	entry   *ast.FuncDecl // the //repro:kernel function (lowered as main)
	scalars map[string]bool

	mu    sync.Mutex
	cache map[int]*lowered
}

// lowered is one per-n lowering: the canonical source text, the checked
// AST, and that AST compiled for Ref, on the lowering's first Ref.
type lowered struct {
	src  string
	prog *minic.Program

	compileOnce sync.Once
	code        *program
}

// compiled returns the lowering compiled to closures, compiling it once.
func (l *lowered) compiled() *program {
	l.compileOnce.Do(func() { l.code = compile(l.prog) })
	return l.code
}

// Expr is an annotation expression over the dataset size n.
type Expr struct {
	src  string
	node ast.Expr
}

// parseExpr parses an annotation expression.
func parseExpr(src string) (Expr, error) {
	node, err := parser.ParseExpr(src)
	if err != nil {
		return Expr{}, fmt.Errorf("bad expression %q: %v", src, err)
	}
	return Expr{src: strings.TrimSpace(src), node: node}, nil
}

// Eval evaluates the expression for a dataset size n.
func (e Expr) Eval(n int) (int64, error) {
	v, err := evalNode(e.node, int64(n))
	if err != nil {
		return 0, fmt.Errorf("%s: %v", e.src, err)
	}
	return v, nil
}

func evalNode(node ast.Expr, n int64) (int64, error) {
	switch x := node.(type) {
	case *ast.BasicLit:
		if x.Kind != token.INT {
			return 0, fmt.Errorf("non-integer literal %s", x.Value)
		}
		v, err := strconv.ParseInt(x.Value, 0, 64)
		if err != nil {
			return 0, fmt.Errorf("bad literal %s", x.Value)
		}
		return v, nil
	case *ast.Ident:
		if x.Name == "n" {
			return n, nil
		}
		return 0, fmt.Errorf("unknown identifier %q (only n and pow2/log2 are defined)", x.Name)
	case *ast.ParenExpr:
		return evalNode(x.X, n)
	case *ast.BinaryExpr:
		l, err := evalNode(x.X, n)
		if err != nil {
			return 0, err
		}
		r, err := evalNode(x.Y, n)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case token.ADD:
			return l + r, nil
		case token.SUB:
			return l - r, nil
		case token.MUL:
			return l * r, nil
		case token.QUO:
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		case token.REM:
			if r == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return l % r, nil
		}
		return 0, fmt.Errorf("unsupported operator %s", x.Op)
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		if !ok || len(x.Args) != 1 {
			return 0, fmt.Errorf("only pow2(x) and log2(x) calls are supported")
		}
		v, err := evalNode(x.Args[0], n)
		if err != nil {
			return 0, err
		}
		switch id.Name {
		case "pow2":
			p := int64(2)
			for p < v {
				if p > 1<<62 {
					return 0, fmt.Errorf("pow2(%d) overflows", v)
				}
				p *= 2
			}
			return p, nil
		case "log2":
			if v < 1 || v&(v-1) != 0 {
				return 0, fmt.Errorf("log2(%d): not a power of two", v)
			}
			k := int64(0)
			for 1<<k < v {
				k++
			}
			return k, nil
		}
		return 0, fmt.Errorf("unknown function %q", id.Name)
	}
	return 0, fmt.Errorf("unsupported syntax")
}

// Scan parses one annotated Go kernel file. Exactly one function must carry
// a //repro:kernel annotation; every global array var must carry a
// //repro:array annotation. The kernel is lowered once (at MinN) before
// returning, so a file that cannot lower fails at scan time, not first use.
func Scan(filename string, src []byte) (*Kernel, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("gofront: %v", err)
	}
	k := &Kernel{
		File:    filename,
		fset:    fset,
		scalars: make(map[string]bool),
		cache:   make(map[int]*lowered),
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.VAR {
				return nil, k.errAt(d.Pos(), "only var declarations are supported at file scope")
			}
			if err := k.scanVar(d); err != nil {
				return nil, err
			}
			k.decls = append(k.decls, d)
		case *ast.FuncDecl:
			if err := k.scanFunc(d); err != nil {
				return nil, err
			}
			k.decls = append(k.decls, d)
		default:
			return nil, k.errAt(decl.Pos(), "unsupported declaration")
		}
	}
	if k.entry == nil {
		return nil, fmt.Errorf("gofront: %s: no //repro:kernel annotation", filename)
	}
	if _, err := k.lower(k.MinN); err != nil {
		return nil, err
	}
	return k, nil
}

// errAt formats an error anchored at a source position.
func (k *Kernel) errAt(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("gofront: %s: %s", k.fset.Position(pos), fmt.Sprintf(format, args...))
}

// scanVar records a file-scope var: an annotated array or a plain scalar.
func (k *Kernel) scanVar(d *ast.GenDecl) error {
	for _, spec := range d.Specs {
		vs := spec.(*ast.ValueSpec)
		if len(vs.Names) != 1 || len(vs.Values) != 0 {
			return k.errAt(vs.Pos(), "file-scope vars must declare one name and no initialiser")
		}
		name := vs.Names[0].Name
		ann := annotationLine(d.Doc, "//repro:array")
		if ann == "" {
			ann = annotationLine(vs.Comment, "//repro:array")
		}
		switch t := vs.Type.(type) {
		case *ast.ArrayType:
			if t.Len != nil {
				return k.errAt(vs.Pos(), "use a slice type; the length comes from the //repro:array annotation")
			}
			elem, ok := t.Elt.(*ast.Ident)
			if !ok || (elem.Name != "uint64" && elem.Name != "int64") {
				return k.errAt(vs.Pos(), "array element type must be uint64 or int64")
			}
			if ann == "" {
				return k.errAt(vs.Pos(), "array %q needs a //repro:array annotation with a len= expression", name)
			}
			arr := Array{Name: name}
			for _, kv := range strings.Fields(ann) {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return k.errAt(vs.Pos(), "bad //repro:array field %q (want key=value)", kv)
				}
				switch key {
				case "len":
					e, err := parseExpr(val)
					if err != nil {
						return k.errAt(vs.Pos(), "array %q: %v", name, err)
					}
					arr.Len = e
				case "gen":
					switch g := GenKind(val); g {
					case GenU32, GenModN:
						arr.Gen = g
					default:
						return k.errAt(vs.Pos(), "array %q: unknown gen %q (want u32 or modn)", name, val)
					}
				default:
					return k.errAt(vs.Pos(), "array %q: unknown //repro:array field %q", name, key)
				}
			}
			if arr.Len.node == nil {
				return k.errAt(vs.Pos(), "array %q: //repro:array needs len=", name)
			}
			k.Arrays = append(k.Arrays, arr)
		case *ast.Ident:
			if t.Name != "uint64" && t.Name != "int64" {
				return k.errAt(vs.Pos(), "scalar type must be uint64 or int64")
			}
			if ann != "" {
				return k.errAt(vs.Pos(), "//repro:array on a scalar var %q", name)
			}
			k.scalars[name] = true
		default:
			return k.errAt(vs.Pos(), "unsupported var type")
		}
	}
	return nil
}

// scanFunc records a function; the one with //repro:kernel becomes the entry.
func (k *Kernel) scanFunc(d *ast.FuncDecl) error {
	if d.Recv != nil {
		return k.errAt(d.Pos(), "methods are not supported")
	}
	if d.Body == nil {
		return k.errAt(d.Pos(), "function has no body")
	}
	line := annotationLine(d.Doc, "//repro:kernel")
	if line == "" {
		return nil
	}
	if k.entry != nil {
		return k.errAt(d.Pos(), "second //repro:kernel in one file")
	}
	k.entry = d
	k.MinN = 2
	for _, kv := range strings.Fields(line) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return k.errAt(d.Pos(), "bad //repro:kernel field %q (want key=value)", kv)
		}
		switch key {
		case "id":
			id, err := strconv.Atoi(val)
			if err != nil || id <= 0 {
				return k.errAt(d.Pos(), "bad kernel id %q", val)
			}
			k.ID = id
		case "name":
			k.Name = val
		case "minn":
			mn, err := strconv.Atoi(val)
			if err != nil || mn < 1 {
				return k.errAt(d.Pos(), "bad minn %q", val)
			}
			k.MinN = mn
		default:
			return k.errAt(d.Pos(), "unknown //repro:kernel field %q", key)
		}
	}
	if k.ID == 0 || k.Name == "" {
		return k.errAt(d.Pos(), "//repro:kernel needs id= and name=")
	}
	// //repro:const NAME = expr lines ride on the entry's doc comment.
	for _, c := range commentLines(d.Doc, "//repro:const") {
		name, expr, ok := strings.Cut(c, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || strings.ContainsAny(name, " \t") {
			return k.errAt(d.Pos(), "bad //repro:const %q (want NAME = expr)", c)
		}
		e, err := parseExpr(expr)
		if err != nil {
			return k.errAt(d.Pos(), "const %s: %v", name, err)
		}
		k.Consts = append(k.Consts, Const{Name: name, Expr: e})
	}
	return nil
}

// annotationLine returns the remainder of the first comment line starting
// with the given marker, or "".
func annotationLine(g *ast.CommentGroup, marker string) string {
	ls := commentLines(g, marker)
	if len(ls) == 0 {
		return ""
	}
	return ls[0]
}

// commentLines returns the remainders of every comment line starting with
// the given marker.
func commentLines(g *ast.CommentGroup, marker string) []string {
	if g == nil {
		return nil
	}
	var out []string
	for _, c := range g.List {
		if rest, ok := strings.CutPrefix(c.Text, marker); ok {
			out = append(out, strings.TrimSpace(rest))
		}
	}
	return out
}

// constsFor evaluates N plus every //repro:const for a dataset size.
func (k *Kernel) constsFor(n int) (map[string]uint64, error) {
	consts := map[string]uint64{"N": uint64(n)}
	for _, c := range k.Consts {
		v, err := c.Expr.Eval(n)
		if err != nil {
			return nil, fmt.Errorf("gofront: %s: const %s: %v", k.File, c.Name, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("gofront: %s: const %s = %d is negative", k.File, c.Name, v)
		}
		if _, dup := consts[c.Name]; dup {
			return nil, fmt.Errorf("gofront: %s: duplicate const %s", k.File, c.Name)
		}
		consts[c.Name] = uint64(v)
	}
	return consts, nil
}

// maxLowered bounds the dataset sizes one kernel keeps lowered. A sweep's
// size axis is a handful of values; a process that is asked for every size
// in turn must not keep every AST and source for its lifetime.
const maxLowered = 32

// lower produces (and caches) the per-n lowering: canonical source text plus
// the checked AST the interpreter runs. Going over maxLowered forgets every
// size: a lowering is a pure function of n, so one asked for again lowers to
// the same source, and callers holding a forgotten one keep using it.
func (k *Kernel) lower(n int) (*lowered, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if l, ok := k.cache[n]; ok {
		return l, nil
	}
	if len(k.cache) >= maxLowered {
		clear(k.cache)
	}
	prog, err := k.lowerProgram(n)
	if err != nil {
		return nil, err
	}
	src := minic.Format(prog)
	if err := minic.Check(prog); err != nil {
		return nil, fmt.Errorf("gofront: %s: lowered program does not check: %v", k.File, err)
	}
	l := &lowered{src: src, prog: prog}
	k.cache[n] = l
	return l, nil
}

// Source returns the canonical mini-C (minic.Format) lowering of the kernel
// for a dataset size. This text is what minic.Compile consumes — the
// unchanged backend of the hand-written kernels.
func (k *Kernel) Source(n int) (string, error) {
	l, err := k.lower(n)
	if err != nil {
		return "", err
	}
	return l.src, nil
}

// Ref derives the reference checksum for a dataset size by running the
// lowered AST over the given inputs (data-segment symbol -> words). The
// lowering is compiled on its first Ref and kept with it; concurrent Refs
// share it.
func (k *Kernel) Ref(n int, in map[string][]uint64) (uint64, error) {
	l, err := k.lower(n)
	if err != nil {
		return 0, err
	}
	return l.compiled().run(in)
}
