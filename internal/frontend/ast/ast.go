// Package ast defines the abstract syntax tree for the mini-C++ dialect.
//
// The tree is produced by the parser and decorated in place by the type
// checker (resolution results live in the Resolved*/Sym fields so that
// later phases — analysis, code generation, interpretation — can walk a
// single structure).
package ast

import "commute/internal/frontend/token"

// Node is implemented by every syntax tree node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------------
// Types (syntactic)

// TypeKind discriminates syntactic type expressions.
type TypeKind int

// Syntactic type kinds.
const (
	TInt TypeKind = iota
	TDouble
	TBool
	TVoid
	TClass
)

// TypeExpr is a syntactic type: a base type possibly wrapped in a
// pointer and/or fixed-size array dimensions.
//
//	double            TypeExpr{Kind: TDouble}
//	node *            TypeExpr{Kind: TClass, ClassName: "node", Ptr: true}
//	double v[NDIM]    TypeExpr{Kind: TDouble, ArrayDims: [NDIM-expr]}
//	node *subp[NSUB]  TypeExpr{Kind: TClass, ClassName: "node", Ptr: true, ArrayDims: [...]}
type TypeExpr struct {
	Kind      TypeKind
	ClassName string // when Kind == TClass
	Ptr       bool
	ArrayDims []Expr // constant dimension expressions, outermost first
	TokPos    token.Pos
}

func (t *TypeExpr) Pos() token.Pos { return t.TokPos }

// ---------------------------------------------------------------------
// Declarations

// File is a parsed source file.
type File struct {
	Name  string
	Decls []Decl
	Size  int // bytes of source text (0 if not from the parser): emitters size output from it
}

func (f *File) Pos() token.Pos {
	if len(f.Decls) > 0 {
		return f.Decls[0].Pos()
	}
	return token.Pos{}
}

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

// ClassDecl declares a class with optional single public inheritance.
type ClassDecl struct {
	Name   string
	Base   string // "" if none
	Fields []*FieldDecl
	Protos []*MethodProto
	// Inline holds methods defined inside the class body; their
	// ClassName is filled with the class name by the parser.
	Inline []*MethodDef
	TokPos token.Pos
}

// FieldDecl declares one instance variable.
type FieldDecl struct {
	Name   string
	Type   *TypeExpr
	Public bool
	TokPos token.Pos
}

// MethodProto is an in-class method prototype; bodies are given by
// out-of-line MethodDef declarations.
type MethodProto struct {
	Name    string
	RetType *TypeExpr
	Params  []*Param
	Public  bool
	TokPos  token.Pos
}

// MethodDef is an out-of-line method definition `ret cl::name(params) {...}`
// or a free function when ClassName is empty.
type MethodDef struct {
	ClassName string // "" for free functions (e.g. main)
	Name      string
	RetType   *TypeExpr
	Params    []*Param
	Body      *Block
	TokPos    token.Pos
}

// Param is a formal parameter.
type Param struct {
	Name   string
	Type   *TypeExpr
	TokPos token.Pos
}

// GlobalVar declares a global variable (class types only in the dialect).
type GlobalVar struct {
	Name   string
	Type   *TypeExpr
	TokPos token.Pos
}

// ConstDecl declares a named compile-time constant, e.g. `const int NDIM = 3;`.
type ConstDecl struct {
	Name   string
	Type   *TypeExpr
	Value  Expr
	TokPos token.Pos
}

func (d *ClassDecl) Pos() token.Pos   { return d.TokPos }
func (d *FieldDecl) Pos() token.Pos   { return d.TokPos }
func (d *MethodProto) Pos() token.Pos { return d.TokPos }
func (d *MethodDef) Pos() token.Pos   { return d.TokPos }
func (d *Param) Pos() token.Pos       { return d.TokPos }
func (d *GlobalVar) Pos() token.Pos   { return d.TokPos }
func (d *ConstDecl) Pos() token.Pos   { return d.TokPos }

func (*ClassDecl) declNode() {}
func (*MethodDef) declNode() {}
func (*GlobalVar) declNode() {}
func (*ConstDecl) declNode() {}

// ---------------------------------------------------------------------
// Statements

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Block is a `{ ... }` statement list.
type Block struct {
	Stmts  []Stmt
	TokPos token.Pos
}

// DeclStmt declares a local variable with an optional initializer.
// Slot (the method-frame slot) and Coerce (the initializer's store
// coercion) are filled in by the type checker.
type DeclStmt struct {
	Name   string
	Type   *TypeExpr
	Init   Expr // may be nil
	Slot   int32
	Coerce Coercion
	TokPos token.Pos
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	X Expr
}

// IfStmt is an if/else statement.
type IfStmt struct {
	Cond   Expr
	Then   Stmt
	Else   Stmt // may be nil
	TokPos token.Pos
}

// ForStmt is a C-style for loop. Init and Post may be nil.
type ForStmt struct {
	Init   Stmt // DeclStmt or ExprStmt
	Cond   Expr
	Post   Stmt // ExprStmt
	Body   Stmt
	TokPos token.Pos
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond   Expr
	Body   Stmt
	TokPos token.Pos
}

// ReturnStmt returns from a method, optionally with a value.
type ReturnStmt struct {
	X      Expr // may be nil
	TokPos token.Pos
}

func (s *Block) Pos() token.Pos      { return s.TokPos }
func (s *DeclStmt) Pos() token.Pos   { return s.TokPos }
func (s *ExprStmt) Pos() token.Pos   { return s.X.Pos() }
func (s *IfStmt) Pos() token.Pos     { return s.TokPos }
func (s *ForStmt) Pos() token.Pos    { return s.TokPos }
func (s *WhileStmt) Pos() token.Pos  { return s.TokPos }
func (s *ReturnStmt) Pos() token.Pos { return s.TokPos }

func (*Block) stmtNode()      {}
func (*DeclStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()   {}
func (*IfStmt) stmtNode()     {}
func (*ForStmt) stmtNode()    {}
func (*WhileStmt) stmtNode()  {}
func (*ReturnStmt) stmtNode() {}

// ---------------------------------------------------------------------
// Expressions

// Expr is an expression node.
type Expr interface {
	Node
	// Num is the number types.Check gives the expression, its index in
	// the checked program's expression table; 0 before any check. A file
	// checked again is numbered again.
	Num() int32
	SetNum(int32)
}

// exprNum carries Expr.Num; every expression node embeds it.
type exprNum struct{ num int32 }

func (e *exprNum) Num() int32     { return e.num }
func (e *exprNum) SetNum(n int32) { e.num = n }

// Coercion is the store-coercion kind precomputed by the type checker
// (types.Coercion): what implicit numeric conversion a value assigned
// through this node undergoes (int↔double per the dialect's rules).
// Precomputing it removes the per-store type-table lookup from the
// interpreter's hot path.
type Coercion uint8

// Store coercion kinds.
const (
	CoNone   Coercion = iota // store as-is
	CoInt                    // truncate double to int
	CoDouble                 // widen int to double
)

// SymKind classifies what an identifier resolved to.
type SymKind uint8

// Identifier resolution classes, filled in by the type checker.
const (
	SymUnresolved SymKind = iota
	SymLocal              // local variable
	SymParam              // formal parameter
	SymConst              // named compile-time constant
	SymGlobal             // global variable (class-typed)
	SymField              // implicit receiver instance variable
)

// Ident is a name use. Sym and (for SymField) FieldClass are filled in by
// the type checker. For SymField, the identifier behaves as
// this->Name with the field declared in class FieldClass.
//
// Slot and Coerce are filled in by the type checker too: Slot is the
// frame slot (SymLocal/SymParam), the object slot offset (SymField —
// static because the layout is base-class-first), the constant-table
// index (SymConst), or the global-table index (SymGlobal).
type Ident struct {
	Name       string
	FieldClass string // class where the field is declared (SymField)
	Slot       int32
	exprNum
	Sym    SymKind
	Coerce Coercion
	TokPos token.Pos
}

// ThisExpr is the receiver reference `this`.
type ThisExpr struct {
	TokPos token.Pos
	exprNum
}

// IntLit is an integer literal.
type IntLit struct {
	exprNum
	Value  int64
	TokPos token.Pos
}

// FloatLit is a floating literal.
type FloatLit struct {
	exprNum
	Value  float64
	TokPos token.Pos
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Value bool
	exprNum
	TokPos token.Pos
}

// NullLit is NULL.
type NullLit struct {
	exprNum
	TokPos token.Pos
}

// StringLit is a string literal (print builtins only).
type StringLit struct {
	exprNum
	Value  string
	TokPos token.Pos
}

// FieldAccess is `X.Name` (Arrow=false) or `X->Name` (Arrow=true).
// DeclClass (set by the type checker) is the class that declares Name.
// Slot is the static object-slot offset of the field and Coerce the
// store coercion, both filled in by the type checker too.
type FieldAccess struct {
	X     Expr
	Name  string
	Arrow bool
	exprNum
	DeclClass string
	Slot      int32
	Coerce    Coercion
	TokPos    token.Pos
}

// IndexExpr is `X[Index]`. Coerce (type checker) is the element store
// coercion.
type IndexExpr struct {
	X      Expr
	Index  Expr
	Coerce Coercion
	exprNum
	TokPos token.Pos
}

// CallExpr is a method or builtin invocation.
//
//	Recv == nil && Builtin      sqrt(x), print(...)
//	Recv == nil && !Builtin     implicit this->Method(...) call
//	Recv != nil                 Recv->Method(...) or Recv.Method(...)
//
// Site is the global call-site ID assigned by the type checker
// (builtins get Site == -1).
type CallExpr struct {
	Recv  Expr // nil for builtins and implicit-this calls
	Arrow bool // Recv->M vs Recv.M
	exprNum
	Method  string
	Args    []Expr
	Builtin bool
	Site    int
	TokPos  token.Pos
}

// NewExpr allocates a new object: `new cl`. ClassIdx is the index of
// the class in the program's declaration order (type checker).
type NewExpr struct {
	ClassName string
	ClassIdx  int32
	exprNum
	TokPos token.Pos
}

// CastExpr is `dynamic_cast<cl*>(X)` (or the C-style `(cl*)X`).
// ClassIdx is the target class's declaration-order index (type
// checker).
type CastExpr struct {
	ClassName string
	ClassIdx  int32
	exprNum
	X       Expr
	Dynamic bool // true for dynamic_cast (runtime-checked, NULL on failure)
	TokPos  token.Pos
}

// Unary is `Op X` (prefix). INC/DEC are desugared by the parser into
// Assign nodes, so Op is one of -, !.
type Unary struct {
	exprNum
	Op     token.Kind
	X      Expr
	TokPos token.Pos
}

// Binary is `X Op Y`.
type Binary struct {
	exprNum
	Op     token.Kind
	X, Y   Expr
	TokPos token.Pos
}

// Assign is `LHS op= RHS`; Op is one of =, +=, -=, *=, /=.
type Assign struct {
	exprNum
	Op     token.Kind
	LHS    Expr
	RHS    Expr
	TokPos token.Pos
}

func (e *Ident) Pos() token.Pos       { return e.TokPos }
func (e *ThisExpr) Pos() token.Pos    { return e.TokPos }
func (e *IntLit) Pos() token.Pos      { return e.TokPos }
func (e *FloatLit) Pos() token.Pos    { return e.TokPos }
func (e *BoolLit) Pos() token.Pos     { return e.TokPos }
func (e *NullLit) Pos() token.Pos     { return e.TokPos }
func (e *StringLit) Pos() token.Pos   { return e.TokPos }
func (e *FieldAccess) Pos() token.Pos { return e.TokPos }
func (e *IndexExpr) Pos() token.Pos   { return e.TokPos }
func (e *CallExpr) Pos() token.Pos    { return e.TokPos }
func (e *NewExpr) Pos() token.Pos     { return e.TokPos }
func (e *CastExpr) Pos() token.Pos    { return e.TokPos }
func (e *Unary) Pos() token.Pos       { return e.TokPos }
func (e *Binary) Pos() token.Pos      { return e.TokPos }
func (e *Assign) Pos() token.Pos      { return e.TokPos }
