package minic

// Type represents a mini-C type. Every scalar and pointer occupies 8 bytes.
type Type struct {
	Kind TypeKind
	Elem *Type // for pointers and arrays
	Len  int64 // for arrays
}

// TypeKind enumerates type kinds.
type TypeKind uint8

// Type kinds.
const (
	TypeVoid TypeKind = iota
	TypeLong
	TypeULong
	TypePtr
	TypeArray
)

var (
	tyVoid  = &Type{Kind: TypeVoid}
	tyLong  = &Type{Kind: TypeLong}
	tyULong = &Type{Kind: TypeULong}
)

func ptrTo(t *Type) *Type            { return &Type{Kind: TypePtr, Elem: t} }
func arrayOf(t *Type, n int64) *Type { return &Type{Kind: TypeArray, Elem: t, Len: n} }

// IsInteger reports whether t is long or unsigned long.
func (t *Type) IsInteger() bool { return t.Kind == TypeLong || t.Kind == TypeULong }

// IsUnsigned reports whether comparisons/division on t are unsigned.
// Pointers compare unsigned.
func (t *Type) IsUnsigned() bool { return t.Kind == TypeULong || t.Kind == TypePtr }

// Size returns the size in bytes (arrays: whole extent).
func (t *Type) Size() int64 {
	if t.Kind == TypeArray {
		return 8 * t.Len
	}
	return 8
}

// String renders the type.
func (t *Type) String() string {
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeLong:
		return "long"
	case TypeULong:
		return "unsigned long"
	case TypePtr:
		return t.Elem.String() + "*"
	case TypeArray:
		return t.Elem.String() + "[]"
	}
	return "?"
}

// ExprKind enumerates expression node kinds.
type ExprKind uint8

// Expression kinds.
const (
	ExprNum    ExprKind = iota // integer literal
	ExprVar                    // identifier reference
	ExprBinary                 // Op: + - * / % & | ^ << >> < <= > >= == != && ||
	ExprUnary                  // Op: - ! ~ * &
	ExprAssign                 // L = R (also compound: Op holds "+" for +=, etc.)
	ExprCall                   // F(Args...)
	ExprIndex                  // Base[Idx]
	ExprCond                   // C ? A : B
)

// Expr is an expression node. Type is filled by the checker.
type Expr struct {
	Kind ExprKind
	Line int
	Type *Type

	Num  uint64 // ExprNum
	Name string // ExprVar, ExprCall (callee)
	Op   string // ExprBinary, ExprUnary, ExprAssign (compound op or "")

	L, R *Expr   // binary/assign/index (L=base, R=index) / cond (L, R = arms)
	C    *Expr   // ExprCond condition
	Args []*Expr // ExprCall

	// Resolution results (checker).
	Local  *LocalVar  // ExprVar: local / parameter
	Global *GlobalVar // ExprVar: global
	Callee *Function  // ExprCall
}

// StmtKind enumerates statement node kinds.
type StmtKind uint8

// Statement kinds.
const (
	StmtExpr StmtKind = iota
	StmtDecl
	StmtIf
	StmtWhile
	StmtFor
	StmtReturn
	StmtBlock
	StmtBreak
	StmtContinue
)

// Stmt is a statement node.
type Stmt struct {
	Kind StmtKind
	Line int

	E          *Expr // expr stmt, condition, return value (may be nil)
	Init, Post *Stmt // for
	Body, Else []*Stmt
	Decl       *LocalVar
	DeclInit   *Expr
}

// LocalVar is a local variable or parameter.
type LocalVar struct {
	Name   string
	Type   *Type
	Offset int64 // rbp-relative (negative)
	Param  int   // parameter index, -1 for plain locals
}

// GlobalVar is a module-level variable.
type GlobalVar struct {
	Name string
	Type *Type
	Init uint64 // initial value for scalars
}

// Function is a function definition.
type Function struct {
	Name      string
	Ret       *Type
	Params    []*LocalVar
	Locals    []*LocalVar // includes params
	Body      []*Stmt
	FrameSize int64
	Line      int
}

// Program is a parsed and checked mini-C translation unit.
type Program struct {
	Globals    []*GlobalVar
	Functions  []*Function
	funcByName map[string]*Function
	globByName map[string]*GlobalVar
}
