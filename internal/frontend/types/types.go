// Package types defines the semantic type system and program
// representation for the mini-C++ dialect, and implements the type
// checker that decorates the AST for the analysis phases.
package types

import (
	"fmt"

	"commute/internal/frontend/ast"
)

// ---------------------------------------------------------------------
// Types

// Type is a semantic type.
type Type interface {
	String() string
	typeNode()
}

// Basic is a primitive type.
type Basic int

// Primitive types.
const (
	Int Basic = iota
	Double
	Bool
	Void
	Null   // type of the NULL literal
	String // string literals (print builtins only)
)

func (b Basic) String() string {
	switch b {
	case Int:
		return "int"
	case Double:
		return "double"
	case Bool:
		return "boolean"
	case Void:
		return "void"
	case Null:
		return "null"
	case String:
		return "string"
	}
	return "?"
}

// Pointer is a pointer to a class instance.
type Pointer struct{ Class *Class }

func (p Pointer) String() string { return p.Class.Name + "*" }

// PrimPointer is a pointer to a primitive (a reference parameter type).
type PrimPointer struct{ Elem Basic }

func (p PrimPointer) String() string { return p.Elem.String() + "*" }

// Array is a fixed-size array. Elem is a primitive or a class pointer.
// Len < 0 denotes an unsized reference-parameter array.
type Array struct {
	Elem Type
	Len  int
}

func (a Array) String() string {
	if a.Len < 0 {
		return a.Elem.String() + "[]"
	}
	return fmt.Sprintf("%s[%d]", a.Elem, a.Len)
}

// Object is a nested object instance (a class used by value).
type Object struct{ Class *Class }

func (o Object) String() string { return o.Class.Name }

func (Basic) typeNode()       {}
func (Pointer) typeNode()     {}
func (PrimPointer) typeNode() {}
func (Array) typeNode()       {}
func (Object) typeNode()      {}

// IsNumeric reports whether t is int or double.
func IsNumeric(t Type) bool {
	b, ok := t.(Basic)
	return ok && (b == Int || b == Double)
}

// IsPrimitive reports whether t is int, double, or boolean.
func IsPrimitive(t Type) bool {
	b, ok := t.(Basic)
	return ok && (b == Int || b == Double || b == Bool)
}

// IsReference reports whether a parameter of type t is a reference
// parameter in the paper's sense (§4.2): a pointer to a primitive type
// or an array of primitive types. Class pointers are not reference
// parameters.
func IsReference(t Type) bool {
	switch tt := t.(type) {
	case PrimPointer:
		return true
	case Array:
		return IsPrimitive(tt.Elem)
	}
	return false
}

// Equal reports structural type equality.
func Equal(a, b Type) bool {
	switch at := a.(type) {
	case Basic:
		bt, ok := b.(Basic)
		return ok && at == bt
	case Pointer:
		bt, ok := b.(Pointer)
		return ok && at.Class == bt.Class
	case PrimPointer:
		bt, ok := b.(PrimPointer)
		return ok && at.Elem == bt.Elem
	case Array:
		bt, ok := b.(Array)
		return ok && at.Len == bt.Len && Equal(at.Elem, bt.Elem)
	case Object:
		bt, ok := b.(Object)
		return ok && at.Class == bt.Class
	}
	return false
}

// ---------------------------------------------------------------------
// Program structure

// Class is a declared class.
type Class struct {
	Name   string
	Base   *Class // nil if none
	Fields []*Field
	// Methods declared (via prototype or inline definition) in this
	// class, in declaration order.
	Methods []*Method
	Decl    *ast.ClassDecl
}

// InheritsFrom reports whether c is cl or inherits (transitively) from cl.
func (c *Class) InheritsFrom(cl *Class) bool {
	for x := c; x != nil; x = x.Base {
		if x == cl {
			return true
		}
	}
	return false
}

// Related reports whether the two classes are on one inheritance chain.
func (c *Class) Related(cl *Class) bool {
	return c.InheritsFrom(cl) || cl.InheritsFrom(c)
}

// FieldByName finds a field by name, searching the inheritance chain.
func (c *Class) FieldByName(name string) *Field {
	for x := c; x != nil; x = x.Base {
		for _, f := range x.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// MethodByName finds a method by name, searching the inheritance chain.
func (c *Class) MethodByName(name string) *Method {
	for x := c; x != nil; x = x.Base {
		for _, m := range x.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	return nil
}

// Field is an instance variable.
type Field struct {
	Name  string
	Type  Type
	Class *Class // declaring class
	Index int    // index within the declaring class
}

// QualName returns "class.field".
func (f *Field) QualName() string { return f.Class.Name + "." + f.Name }

// Param is a formal parameter.
type Param struct {
	Name  string
	Type  Type
	Index int
	Decl  *ast.Param
}

// IsRef reports whether the parameter is a reference parameter.
func (p *Param) IsRef() bool { return IsReference(p.Type) }

// Method is a method (Class != nil) or a free function (Class == nil).
type Method struct {
	ID     int
	Class  *Class
	Name   string
	Params []*Param
	Ret    Type
	Def    *ast.MethodDef
	// CallSites are the non-builtin call sites in the body, in source
	// order.
	CallSites []*CallSite
	// Locals maps each local variable name to its type (loop variables
	// reusing a name share an entry; the checker rejects conflicting
	// reuse).
	Locals map[string]Type
}

// FullName returns "class::name" or just the name for free functions.
func (m *Method) FullName() string {
	if m.Class == nil {
		return m.Name
	}
	return m.Class.Name + "::" + m.Name
}

// ParamByName returns the named parameter, or nil.
func (m *Method) ParamByName(name string) *Param {
	for _, p := range m.Params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ReferenceParams returns the method's reference parameters.
func (m *Method) ReferenceParams() []*Param {
	var out []*Param
	for _, p := range m.Params {
		if p.IsRef() {
			out = append(out, p)
		}
	}
	return out
}

// CallSite is one non-builtin call site.
type CallSite struct {
	ID     int
	Call   *ast.CallExpr
	Caller *Method
	Callee *Method
	// ValueUsed: the call appears anywhere other than statement
	// position, i.e. its return value is consumed.
	ValueUsed bool
}

// Global is a global variable (class-typed per the dialect).
type Global struct {
	Name  string
	Class *Class
	Decl  *ast.GlobalVar
}

// ConstVal is a named compile-time constant.
type ConstVal struct {
	IsInt bool
	I     int64
	F     float64
}

// AsFloat returns the constant as a float64.
func (c ConstVal) AsFloat() float64 {
	if c.IsInt {
		return float64(c.I)
	}
	return c.F
}

// Builtin describes one builtin function.
type Builtin struct {
	Name   string
	Params []Type
	Ret    Type
	IsIO   bool
	// Variadic builtins (print) accept any argument types.
	Variadic bool
}

// Builtins is the builtin function table. Math builtins are pure; print
// builtins are flagged IsIO and make enclosing extents unparallelizable.
var Builtins = map[string]*Builtin{
	"sqrt":  {Name: "sqrt", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"fabs":  {Name: "fabs", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"exp":   {Name: "exp", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"log":   {Name: "log", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"floor": {Name: "floor", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"sin":   {Name: "sin", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"cos":   {Name: "cos", Params: []Type{Basic(Double)}, Ret: Basic(Double)},
	"pow":   {Name: "pow", Params: []Type{Basic(Double), Basic(Double)}, Ret: Basic(Double)},
	"print": {Name: "print", Ret: Basic(Void), IsIO: true, Variadic: true},
}

// Program is a fully checked program.
type Program struct {
	Classes   map[string]*Class
	ClassList []*Class // declaration order
	Methods   []*Method
	Funcs     map[string]*Method // free functions by name
	Globals   map[string]*Global
	GlobalSeq []*Global
	Consts    map[string]ConstVal
	CallSites []*CallSite
	Main      *Method // free function "main", if present

	SourceBytes int // Σ ast.File.Size of the checked files

	// ExprType records the checked type of every expression.
	ExprType map[ast.Expr]Type
	// DeclType records the resolved type of every local declaration.
	DeclType map[*ast.DeclStmt]Type
	// EnclosingMethod maps each call site ID back to its method (same
	// as CallSites[id].Caller; kept for O(1) audits).
}

// TypeOf returns the checked type of e.
func (p *Program) TypeOf(e ast.Expr) Type { return p.ExprType[e] }

// MethodByFullName resolves "class::name" or a free-function name.
func (p *Program) MethodByFullName(full string) *Method {
	for _, m := range p.Methods {
		if m.FullName() == full {
			return m
		}
	}
	return nil
}
