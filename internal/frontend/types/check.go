package types

import (
	"fmt"
	"strings"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
)

// checker carries the state of one Check run.
type checker struct {
	prog   *Program
	errors []error

	// per-method state
	method *Method
	scopes []map[string]Type // local scopes, innermost last
}

// Check type-checks the files (in order) and returns the checked
// program. Class, constant, and global declarations are visible to all
// files regardless of order within a file set.
func Check(files ...*ast.File) (*Program, error) {
	// Number the expressions: ExprType has one entry per number.
	var exprs int32
	size := 0
	for _, f := range files {
		size += f.Size
		ast.Inspect(f, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				exprs++
				e.SetNum(exprs)
			}
			return true
		})
	}
	c := &checker{prog: &Program{
		Classes:  make(map[string]*Class),
		Funcs:    make(map[string]*Method),
		Globals:  make(map[string]*Global),
		Consts:   make(map[string]ConstVal),
		ExprType: make([]Type, exprs+1),
		DeclType: make(map[*ast.DeclStmt]Type),

		SourceBytes: size,
	}}

	// Pass 1: class names.
	for _, f := range files {
		for _, d := range f.Decls {
			if cd, ok := d.(*ast.ClassDecl); ok {
				if _, dup := c.prog.Classes[cd.Name]; dup {
					c.errorf(cd.Pos(), "class %s redeclared", cd.Name)
					continue
				}
				cl := &Class{Name: cd.Name, Decl: cd}
				c.prog.Classes[cd.Name] = cl
				c.prog.ClassList = append(c.prog.ClassList, cl)
			}
		}
	}

	// Pass 2: constants (may be referenced by array dimensions).
	for _, f := range files {
		for _, d := range f.Decls {
			if kd, ok := d.(*ast.ConstDecl); ok {
				c.checkConstDecl(kd)
			}
		}
	}

	// Pass 3: class bases, fields, method signatures.
	for _, f := range files {
		for _, d := range f.Decls {
			if cd, ok := d.(*ast.ClassDecl); ok {
				c.checkClassHeader(cd)
			}
		}
	}
	c.checkInheritanceCycles()

	// Pass 4: globals and free-function signatures.
	for _, f := range files {
		for _, d := range f.Decls {
			switch dd := d.(type) {
			case *ast.GlobalVar:
				c.checkGlobal(dd)
			case *ast.MethodDef:
				if dd.ClassName == "" {
					c.declareFreeFunc(dd)
				}
			}
		}
	}

	// Pass 5: bind out-of-line method bodies to their declarations.
	for _, f := range files {
		for _, d := range f.Decls {
			if md, ok := d.(*ast.MethodDef); ok && md.ClassName != "" {
				c.bindMethodDef(md)
			}
		}
	}

	// Pass 6: check all bodies and number call sites in a deterministic
	// order (class declaration order, then free functions).
	for _, cl := range c.prog.ClassList {
		for _, m := range cl.Methods {
			c.checkBody(m)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if md, ok := d.(*ast.MethodDef); ok && md.ClassName == "" {
				c.checkBody(c.prog.Funcs[md.Name])
			}
		}
	}

	if m, ok := c.prog.Funcs["main"]; ok {
		c.prog.Main = m
	}
	if len(c.errors) > 0 {
		var sb strings.Builder
		for i, e := range c.errors {
			if i > 0 {
				sb.WriteByte('\n')
			}
			sb.WriteString(e.Error())
		}
		return c.prog, fmt.Errorf("%s", sb.String())
	}
	return c.prog, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errors = append(c.errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// ---------------------------------------------------------------------
// Declarations

func (c *checker) checkConstDecl(kd *ast.ConstDecl) {
	v, ok := c.evalConst(kd.Value)
	if !ok {
		c.errorf(kd.Pos(), "constant %s: initializer is not a compile-time constant", kd.Name)
		return
	}
	if kd.Type.Kind == ast.TInt && !v.IsInt {
		c.errorf(kd.Pos(), "constant %s: int constant initialized with float", kd.Name)
		return
	}
	if kd.Type.Kind == ast.TDouble && v.IsInt {
		v = ConstVal{IsInt: false, F: float64(v.I)}
	}
	if _, dup := c.prog.Consts[kd.Name]; dup {
		c.errorf(kd.Pos(), "constant %s redeclared", kd.Name)
		return
	}
	c.prog.Consts[kd.Name] = v
}

// evalConst evaluates a compile-time constant expression built from
// literals, named constants, unary minus, and the four arithmetic
// operators.
func (c *checker) evalConst(e ast.Expr) (ConstVal, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return ConstVal{IsInt: true, I: x.Value}, true
	case *ast.FloatLit:
		return ConstVal{F: x.Value}, true
	case *ast.Ident:
		v, ok := c.prog.Consts[x.Name]
		return v, ok
	case *ast.Unary:
		if x.Op != token.MINUS {
			return ConstVal{}, false
		}
		v, ok := c.evalConst(x.X)
		if !ok {
			return ConstVal{}, false
		}
		if v.IsInt {
			return ConstVal{IsInt: true, I: -v.I}, true
		}
		return ConstVal{F: -v.F}, true
	case *ast.Binary:
		a, ok1 := c.evalConst(x.X)
		b, ok2 := c.evalConst(x.Y)
		if !ok1 || !ok2 {
			return ConstVal{}, false
		}
		if a.IsInt && b.IsInt {
			switch x.Op {
			case token.PLUS:
				return ConstVal{IsInt: true, I: a.I + b.I}, true
			case token.MINUS:
				return ConstVal{IsInt: true, I: a.I - b.I}, true
			case token.STAR:
				return ConstVal{IsInt: true, I: a.I * b.I}, true
			case token.SLASH:
				if b.I == 0 {
					return ConstVal{}, false
				}
				return ConstVal{IsInt: true, I: a.I / b.I}, true
			}
			return ConstVal{}, false
		}
		af, bf := a.AsFloat(), b.AsFloat()
		switch x.Op {
		case token.PLUS:
			return ConstVal{F: af + bf}, true
		case token.MINUS:
			return ConstVal{F: af - bf}, true
		case token.STAR:
			return ConstVal{F: af * bf}, true
		case token.SLASH:
			return ConstVal{F: af / bf}, true
		}
	}
	return ConstVal{}, false
}

// resolveType converts a syntactic type to a semantic one. kindHint
// distinguishes contexts: fields and locals treat `cl` (no pointer) as a
// nested object; parameters of pointer-to-primitive are reference
// parameters.
func (c *checker) resolveType(te *ast.TypeExpr, pos token.Pos) Type {
	var base Type
	switch te.Kind {
	case ast.TInt:
		base = Basic(Int)
	case ast.TDouble:
		base = Basic(Double)
	case ast.TBool:
		base = Basic(Bool)
	case ast.TVoid:
		base = Basic(Void)
	case ast.TClass:
		cl, ok := c.prog.Classes[te.ClassName]
		if !ok {
			c.errorf(pos, "undefined class %s", te.ClassName)
			return Basic(Int)
		}
		if te.Ptr {
			base = Pointer{Class: cl}
		} else {
			base = Object{Class: cl}
		}
	}
	if te.Ptr && te.Kind != ast.TClass {
		b := base.(Basic)
		if b == Void {
			c.errorf(pos, "void* is not in the dialect")
			return Basic(Int)
		}
		base = PrimPointer{Elem: b}
	}
	// Apply array dimensions innermost-last.
	for i := len(te.ArrayDims) - 1; i >= 0; i-- {
		dim := te.ArrayDims[i]
		if dim == nil {
			base = Array{Elem: base, Len: -1}
			continue
		}
		v, ok := c.evalConst(dim)
		if !ok || !v.IsInt || v.I <= 0 {
			c.errorf(pos, "array dimension must be a positive integer constant")
			base = Array{Elem: base, Len: 1}
			continue
		}
		base = Array{Elem: base, Len: int(v.I)}
	}
	return base
}

func (c *checker) checkClassHeader(cd *ast.ClassDecl) {
	cl := c.prog.Classes[cd.Name]
	if cd.Base != "" {
		base, ok := c.prog.Classes[cd.Base]
		if !ok {
			c.errorf(cd.Pos(), "class %s: undefined base class %s", cd.Name, cd.Base)
		} else {
			cl.Base = base
		}
	}
	for _, fd := range cd.Fields {
		t := c.resolveType(fd.Type, fd.Pos())
		if b, ok := t.(Basic); ok && (b == Void) {
			c.errorf(fd.Pos(), "field %s.%s: void field", cd.Name, fd.Name)
			continue
		}
		if _, ok := t.(PrimPointer); ok {
			c.errorf(fd.Pos(), "field %s.%s: pointers to primitives may only appear as parameters", cd.Name, fd.Name)
			continue
		}
		if a, ok := t.(Array); ok && a.Len < 0 {
			c.errorf(fd.Pos(), "field %s.%s: unsized array", cd.Name, fd.Name)
			continue
		}
		cl.Fields = append(cl.Fields, &Field{
			Name: fd.Name, Type: t, Class: cl, Index: len(cl.Fields),
		})
	}
	declareMethod := func(name string, ret *ast.TypeExpr, params []*ast.Param, def *ast.MethodDef, pos token.Pos) {
		m := &Method{
			ID:     len(c.prog.Methods),
			Class:  cl,
			Name:   name,
			Ret:    c.resolveType(ret, pos),
			Def:    def,
			Locals: make(map[string]Type),
		}
		for i, p := range params {
			pt := c.resolveType(p.Type, p.Pos())
			m.Params = append(m.Params, &Param{Name: p.Name, Type: pt, Index: i, Decl: p})
		}
		for _, existing := range cl.Methods {
			if existing.Name == name {
				c.errorf(pos, "method %s::%s redeclared (overloading is not in the dialect)", cl.Name, name)
				return
			}
		}
		cl.Methods = append(cl.Methods, m)
		c.prog.Methods = append(c.prog.Methods, m)
	}
	for _, proto := range cd.Protos {
		declareMethod(proto.Name, proto.RetType, proto.Params, nil, proto.Pos())
	}
	for _, md := range cd.Inline {
		declareMethod(md.Name, md.RetType, md.Params, md, md.Pos())
	}
}

func (c *checker) checkInheritanceCycles() {
	for _, cl := range c.prog.ClassList {
		slow, fast := cl, cl
		for fast != nil && fast.Base != nil {
			slow = slow.Base
			fast = fast.Base.Base
			if slow == fast && slow != nil {
				c.errorf(cl.Decl.Pos(), "inheritance cycle involving class %s", cl.Name)
				cl.Base = nil
				return
			}
		}
	}
}

func (c *checker) checkGlobal(gv *ast.GlobalVar) {
	if gv.Type.Kind != ast.TClass || gv.Type.Ptr {
		c.errorf(gv.Pos(), "global %s: globals must be class types (dialect §6.1)", gv.Name)
		return
	}
	cl, ok := c.prog.Classes[gv.Type.ClassName]
	if !ok {
		c.errorf(gv.Pos(), "global %s: undefined class %s", gv.Name, gv.Type.ClassName)
		return
	}
	if _, dup := c.prog.Globals[gv.Name]; dup {
		c.errorf(gv.Pos(), "global %s redeclared", gv.Name)
		return
	}
	g := &Global{Name: gv.Name, Class: cl, Decl: gv}
	c.prog.Globals[gv.Name] = g
	c.prog.GlobalSeq = append(c.prog.GlobalSeq, g)
}

func (c *checker) declareFreeFunc(md *ast.MethodDef) {
	if _, dup := c.prog.Funcs[md.Name]; dup {
		c.errorf(md.Pos(), "function %s redeclared", md.Name)
		return
	}
	m := &Method{
		ID:     len(c.prog.Methods),
		Name:   md.Name,
		Ret:    c.resolveType(md.RetType, md.Pos()),
		Def:    md,
		Locals: make(map[string]Type),
	}
	for i, p := range md.Params {
		pt := c.resolveType(p.Type, p.Pos())
		m.Params = append(m.Params, &Param{Name: p.Name, Type: pt, Index: i, Decl: p})
	}
	c.prog.Funcs[md.Name] = m
	c.prog.Methods = append(c.prog.Methods, m)
}

func (c *checker) bindMethodDef(md *ast.MethodDef) {
	cl, ok := c.prog.Classes[md.ClassName]
	if !ok {
		c.errorf(md.Pos(), "method definition for undefined class %s", md.ClassName)
		return
	}
	var m *Method
	for _, mm := range cl.Methods {
		if mm.Name == md.Name {
			m = mm
			break
		}
	}
	if m == nil {
		c.errorf(md.Pos(), "no prototype for %s::%s in class body", md.ClassName, md.Name)
		return
	}
	if m.Def != nil {
		c.errorf(md.Pos(), "%s::%s defined twice", md.ClassName, md.Name)
		return
	}
	// The definition's parameter list wins (prototypes and definitions
	// must agree in arity; we verify types element-wise).
	if len(md.Params) != len(m.Params) {
		c.errorf(md.Pos(), "%s::%s: definition has %d parameters, prototype has %d",
			md.ClassName, md.Name, len(md.Params), len(m.Params))
		return
	}
	for i, p := range md.Params {
		pt := c.resolveType(p.Type, p.Pos())
		if !Equal(pt, m.Params[i].Type) {
			c.errorf(p.Pos(), "%s::%s: parameter %d type %s differs from prototype %s",
				md.ClassName, md.Name, i+1, pt, m.Params[i].Type)
		}
		m.Params[i].Name = p.Name
		m.Params[i].Decl = p
	}
	rt := c.resolveType(md.RetType, md.Pos())
	if !Equal(rt, m.Ret) {
		c.errorf(md.Pos(), "%s::%s: return type %s differs from prototype %s",
			md.ClassName, md.Name, rt, m.Ret)
	}
	m.Def = md
}
