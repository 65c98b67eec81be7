package types

import (
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
)

// ---------------------------------------------------------------------
// Bodies

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]Type)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookupLocal(name string) (Type, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (c *checker) declareLocal(name string, t Type, pos token.Pos) {
	if _, ok := c.scopes[len(c.scopes)-1][name]; ok {
		c.errorf(pos, "local %s redeclared in the same scope", name)
		return
	}
	if _, shadows := c.lookupLocal(name); shadows {
		c.errorf(pos, "local %s shadows an outer declaration (not allowed in the dialect)", name)
		return
	}
	if c.method.ParamByName(name) != nil {
		c.errorf(pos, "local %s shadows a parameter", name)
		return
	}
	// Sequential reuse of the same name (e.g. two `for (int i...)`
	// loops) shares the method-level slot; conflicting types are
	// rejected.
	if prev, ok := c.method.Locals[name]; ok && !Equal(prev, t) {
		c.errorf(pos, "local %s redeclared with a different type (%s vs %s)", name, t, prev)
		return
	}
	c.method.Locals[name] = t
	c.scopes[len(c.scopes)-1][name] = t
}

func (c *checker) checkBody(m *Method) {
	if m == nil || m.Def == nil {
		if m != nil {
			c.errorf(token.Pos{Line: 1, Col: 1}, "%s declared but never defined", m.FullName())
		}
		return
	}
	c.method = m
	c.scopes = nil
	c.pushScope()
	for _, p := range m.Params {
		if _, ok := p.Type.(Object); ok {
			c.errorf(p.Decl.Pos(), "%s: parameter %s: objects are passed by pointer in the dialect", m.FullName(), p.Name)
		}
	}
	c.checkStmt(m.Def.Body)
	c.popScope()
	c.method = nil
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.Block:
		c.pushScope()
		for _, sub := range st.Stmts {
			c.checkStmt(sub)
		}
		c.popScope()
	case *ast.DeclStmt:
		t := c.resolveType(st.Type, st.Pos())
		if b, ok := t.(Basic); ok && b == Void {
			c.errorf(st.Pos(), "void local %s", st.Name)
			return
		}
		if _, ok := t.(Object); ok {
			c.errorf(st.Pos(), "local %s: nested-object locals are not in the dialect", st.Name)
			return
		}
		c.prog.DeclType[st] = t
		c.declareLocal(st.Name, t, st.Pos())
		if st.Init != nil {
			it := c.checkExpr(st.Init)
			c.checkAssignable(t, it, st.Pos(), "initialization of "+st.Name)
		}
	case *ast.ExprStmt:
		c.checkExpr(st.X)
		if call, ok := st.X.(*ast.CallExpr); ok && call.Site >= 0 {
			c.prog.CallSites[call.Site].ValueUsed = false // the statement drops it
		}
	case *ast.IfStmt:
		ct := c.checkExpr(st.Cond)
		if b, ok := ct.(Basic); !ok || b != Bool {
			c.errorf(st.Pos(), "if condition must be boolean, got %s", ct)
		}
		c.checkStmt(st.Then)
		if st.Else != nil {
			c.checkStmt(st.Else)
		}
	case *ast.ForStmt:
		c.pushScope()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			ct := c.checkExpr(st.Cond)
			if b, ok := ct.(Basic); !ok || b != Bool {
				c.errorf(st.Pos(), "for condition must be boolean, got %s", ct)
			}
		}
		if st.Post != nil {
			c.checkStmt(st.Post)
		}
		c.checkStmt(st.Body)
		c.popScope()
	case *ast.WhileStmt:
		ct := c.checkExpr(st.Cond)
		if b, ok := ct.(Basic); !ok || b != Bool {
			c.errorf(st.Pos(), "while condition must be boolean, got %s", ct)
		}
		c.checkStmt(st.Body)
	case *ast.ReturnStmt:
		want := c.method.Ret
		if st.X == nil {
			if b, ok := want.(Basic); !ok || b != Void {
				c.errorf(st.Pos(), "%s: return with no value in method returning %s", c.method.FullName(), want)
			}
			return
		}
		got := c.checkExpr(st.X)
		if b, ok := want.(Basic); ok && b == Void {
			c.errorf(st.Pos(), "%s: return value in void method", c.method.FullName())
			return
		}
		c.checkAssignable(want, got, st.Pos(), "return")
	}
}

// checkAssignable verifies that a value of type `from` can be stored in
// a location of type `to`.
func (c *checker) checkAssignable(to, from Type, pos token.Pos, what string) {
	if to == nil || from == nil {
		return
	}
	if IsNumeric(to) && IsNumeric(from) {
		return // implicit int<->double conversion
	}
	if tb, ok := to.(Basic); ok {
		if fb, ok2 := from.(Basic); ok2 && tb == fb {
			return
		}
	}
	if tp, ok := to.(Pointer); ok {
		if _, isNull := from.(Basic); isNull && from.(Basic) == Null {
			return
		}
		if fp, ok2 := from.(Pointer); ok2 && fp.Class.InheritsFrom(tp.Class) {
			return // implicit upcast
		}
	}
	c.errorf(pos, "%s: cannot assign %s to %s", what, from, to)
}

// setType records and returns an expression's type.
func (c *checker) setType(e ast.Expr, t Type) Type {
	c.prog.ExprType[e] = t
	return t
}

func (c *checker) checkExpr(e ast.Expr) Type {
	switch x := e.(type) {
	case *ast.IntLit:
		return c.setType(e, Basic(Int))
	case *ast.FloatLit:
		return c.setType(e, Basic(Double))
	case *ast.BoolLit:
		return c.setType(e, Basic(Bool))
	case *ast.NullLit:
		return c.setType(e, Basic(Null))
	case *ast.StringLit:
		return c.setType(e, Basic(String))
	case *ast.ThisExpr:
		if c.method == nil || c.method.Class == nil {
			c.errorf(x.Pos(), "this used outside a class method")
			return c.setType(e, Basic(Int))
		}
		return c.setType(e, Pointer{Class: c.method.Class})
	case *ast.Ident:
		return c.checkIdent(x)
	case *ast.FieldAccess:
		return c.checkFieldAccess(x)
	case *ast.IndexExpr:
		xt := c.checkExpr(x.X)
		it := c.checkExpr(x.Index)
		if b, ok := it.(Basic); !ok || b != Int {
			c.errorf(x.Pos(), "array index must be int, got %s", it)
		}
		switch at := xt.(type) {
		case Array:
			return c.setType(e, at.Elem)
		case PrimPointer:
			return c.setType(e, Basic(at.Elem))
		default:
			c.errorf(x.Pos(), "indexing non-array type %s", xt)
			return c.setType(e, Basic(Int))
		}
	case *ast.CallExpr:
		return c.checkCall(x)
	case *ast.NewExpr:
		cl, ok := c.prog.Classes[x.ClassName]
		if !ok {
			c.errorf(x.Pos(), "new of undefined class %s", x.ClassName)
			return c.setType(e, Basic(Int))
		}
		return c.setType(e, Pointer{Class: cl})
	case *ast.CastExpr:
		xt := c.checkExpr(x.X)
		cl, ok := c.prog.Classes[x.ClassName]
		if !ok {
			c.errorf(x.Pos(), "cast to undefined class %s", x.ClassName)
			return c.setType(e, Basic(Int))
		}
		fp, ok := xt.(Pointer)
		if !ok {
			c.errorf(x.Pos(), "cast applied to non-pointer type %s", xt)
			return c.setType(e, Pointer{Class: cl})
		}
		if !fp.Class.Related(cl) {
			c.errorf(x.Pos(), "cast between unrelated classes %s and %s", fp.Class.Name, cl.Name)
		}
		return c.setType(e, Pointer{Class: cl})
	case *ast.Unary:
		xt := c.checkExpr(x.X)
		switch x.Op {
		case token.MINUS:
			if !IsNumeric(xt) {
				c.errorf(x.Pos(), "unary - on non-numeric type %s", xt)
				return c.setType(e, Basic(Int))
			}
			return c.setType(e, xt)
		case token.NOT:
			if b, ok := xt.(Basic); !ok || b != Bool {
				c.errorf(x.Pos(), "! on non-boolean type %s", xt)
			}
			return c.setType(e, Basic(Bool))
		}
		c.errorf(x.Pos(), "unknown unary operator %s", x.Op)
		return c.setType(e, Basic(Int))
	case *ast.Binary:
		return c.checkBinary(x)
	case *ast.Assign:
		return c.checkAssign(x)
	}
	c.errorf(e.Pos(), "unhandled expression")
	return c.setType(e, Basic(Int))
}

func (c *checker) checkIdent(x *ast.Ident) Type {
	// Resolution order: locals, parameters, constants, receiver fields,
	// globals.
	if t, ok := c.lookupLocal(x.Name); ok {
		x.Sym = ast.SymLocal
		return c.setType(x, t)
	}
	if c.method != nil {
		if p := c.method.ParamByName(x.Name); p != nil {
			x.Sym = ast.SymParam
			return c.setType(x, p.Type)
		}
	}
	if v, ok := c.prog.Consts[x.Name]; ok {
		x.Sym = ast.SymConst
		if v.IsInt {
			return c.setType(x, Basic(Int))
		}
		return c.setType(x, Basic(Double))
	}
	if c.method != nil && c.method.Class != nil {
		if f := c.method.Class.FieldByName(x.Name); f != nil {
			x.Sym = ast.SymField
			x.FieldClass = f.Class.Name
			return c.setType(x, f.Type)
		}
	}
	if g, ok := c.prog.Globals[x.Name]; ok {
		x.Sym = ast.SymGlobal
		return c.setType(x, Object{Class: g.Class})
	}
	c.errorf(x.Pos(), "undefined identifier %s", x.Name)
	x.Sym = ast.SymUnresolved
	return c.setType(x, Basic(Int))
}

func (c *checker) checkFieldAccess(x *ast.FieldAccess) Type {
	xt := c.checkExpr(x.X)
	var cl *Class
	switch t := xt.(type) {
	case Pointer:
		if !x.Arrow {
			c.errorf(x.Pos(), "use -> to access fields through a pointer")
		}
		cl = t.Class
	case Object:
		if x.Arrow {
			c.errorf(x.Pos(), "use . to access fields of an object")
		}
		cl = t.Class
	default:
		c.errorf(x.Pos(), "field access on non-object type %s", xt)
		return c.setType(x, Basic(Int))
	}
	f := cl.FieldByName(x.Name)
	if f == nil {
		c.errorf(x.Pos(), "class %s has no field %s", cl.Name, x.Name)
		return c.setType(x, Basic(Int))
	}
	x.DeclClass = f.Class.Name
	return c.setType(x, f.Type)
}

func (c *checker) checkCall(x *ast.CallExpr) Type {
	// Builtins: unqualified calls to names in the builtin table.
	if x.Recv == nil {
		if b, ok := Builtins[x.Method]; ok {
			x.Builtin = true
			x.Site = -1
			if b.Variadic {
				for _, a := range x.Args {
					c.checkExpr(a)
				}
			} else {
				if len(x.Args) != len(b.Params) {
					c.errorf(x.Pos(), "%s expects %d arguments, got %d", b.Name, len(b.Params), len(x.Args))
				}
				for i, a := range x.Args {
					at := c.checkExpr(a)
					if i < len(b.Params) {
						if IsNumeric(b.Params[i]) && IsNumeric(at) {
							continue
						}
						if !Equal(b.Params[i], at) {
							c.errorf(a.Pos(), "%s: argument %d has type %s, want %s", b.Name, i+1, at, b.Params[i])
						}
					}
				}
			}
			return c.setType(x, b.Ret)
		}
	}

	var callee *Method
	switch {
	case x.Recv == nil && c.method != nil && c.method.Class != nil:
		// Implicit this->m(...).
		callee = c.method.Class.MethodByName(x.Method)
		if callee == nil {
			if c.prog.Funcs[x.Method] != nil {
				c.errorf(x.Pos(), "methods may not call free functions (dialect restriction)")
			} else {
				c.errorf(x.Pos(), "class %s has no method %s", c.method.Class.Name, x.Method)
			}
			return c.setType(x, Basic(Int))
		}
	case x.Recv == nil:
		// Free-function call; only allowed from free functions to keep
		// the object-based model of computation clean.
		callee = c.prog.Funcs[x.Method]
		if callee == nil {
			c.errorf(x.Pos(), "undefined function %s", x.Method)
			return c.setType(x, Basic(Int))
		}
	default:
		rt := c.checkExpr(x.Recv)
		var cl *Class
		switch t := rt.(type) {
		case Pointer:
			if !x.Arrow {
				c.errorf(x.Pos(), "use -> to invoke methods through a pointer")
			}
			cl = t.Class
		case Object:
			if x.Arrow {
				c.errorf(x.Pos(), "use . to invoke methods on an object")
			}
			cl = t.Class
		default:
			c.errorf(x.Pos(), "method call on non-object type %s", rt)
			return c.setType(x, Basic(Int))
		}
		callee = cl.MethodByName(x.Method)
		if callee == nil {
			c.errorf(x.Pos(), "class %s has no method %s", cl.Name, x.Method)
			return c.setType(x, Basic(Int))
		}
	}

	if callee.Class == nil && c.method != nil && c.method.Class != nil {
		c.errorf(x.Pos(), "methods may not call free functions (dialect restriction)")
	}

	if len(x.Args) != len(callee.Params) {
		c.errorf(x.Pos(), "%s expects %d arguments, got %d", callee.FullName(), len(callee.Params), len(x.Args))
	}
	for i, a := range x.Args {
		at := c.checkExpr(a)
		if i >= len(callee.Params) {
			continue
		}
		pt := callee.Params[i].Type
		switch ptt := pt.(type) {
		case PrimPointer:
			// Reference parameter: accepts an array of the element type
			// (decay) or another reference parameter of the same type.
			if arr, ok := at.(Array); ok && Equal(arr.Elem, Basic(ptt.Elem)) {
				continue
			}
			if Equal(at, pt) {
				continue
			}
			c.errorf(a.Pos(), "%s: argument %d has type %s, want %s", callee.FullName(), i+1, at, pt)
		case Array:
			if arr, ok := at.(Array); ok && Equal(arr.Elem, ptt.Elem) {
				continue
			}
			if pp, ok := at.(PrimPointer); ok {
				if eb, ok2 := ptt.Elem.(Basic); ok2 && pp.Elem == eb {
					continue
				}
			}
			c.errorf(a.Pos(), "%s: argument %d has type %s, want %s", callee.FullName(), i+1, at, pt)
		default:
			c.checkAssignable(pt, at, a.Pos(), "argument "+callee.Params[i].Name)
		}
	}

	// Register the call site.
	site := &CallSite{
		ID:     len(c.prog.CallSites),
		Call:   x,
		Caller: c.method,
		Callee: callee,

		ValueUsed: true, // until checkStmt finds the call is a statement
	}
	x.Site = site.ID
	c.prog.CallSites = append(c.prog.CallSites, site)
	if c.method != nil {
		c.method.CallSites = append(c.method.CallSites, site)
	}
	return c.setType(x, callee.Ret)
}

func (c *checker) checkBinary(x *ast.Binary) Type {
	lt := c.checkExpr(x.X)
	rt := c.checkExpr(x.Y)
	switch x.Op {
	case token.PLUS, token.MINUS, token.STAR, token.SLASH:
		if !IsNumeric(lt) || !IsNumeric(rt) {
			c.errorf(x.Pos(), "operator %s requires numeric operands, got %s and %s", x.Op, lt, rt)
			return c.setType(x, Basic(Int))
		}
		if Equal(lt, Basic(Double)) || Equal(rt, Basic(Double)) {
			return c.setType(x, Basic(Double))
		}
		return c.setType(x, Basic(Int))
	case token.PERCENT:
		if !Equal(lt, Basic(Int)) || !Equal(rt, Basic(Int)) {
			c.errorf(x.Pos(), "operator %% requires int operands, got %s and %s", lt, rt)
		}
		return c.setType(x, Basic(Int))
	case token.LT, token.GT, token.LEQ, token.GEQ:
		if !IsNumeric(lt) || !IsNumeric(rt) {
			c.errorf(x.Pos(), "comparison %s requires numeric operands, got %s and %s", x.Op, lt, rt)
		}
		return c.setType(x, Basic(Bool))
	case token.EQ, token.NEQ:
		if IsNumeric(lt) && IsNumeric(rt) {
			return c.setType(x, Basic(Bool))
		}
		if lb, ok := lt.(Basic); ok {
			if rb, ok2 := rt.(Basic); ok2 && lb == rb && lb == Bool {
				return c.setType(x, Basic(Bool))
			}
		}
		lp, lok := lt.(Pointer)
		rp, rok := rt.(Pointer)
		lnull := Equal(lt, Basic(Null))
		rnull := Equal(rt, Basic(Null))
		if (lok && rnull) || (lnull && rok) || (lnull && rnull) {
			return c.setType(x, Basic(Bool))
		}
		if lok && rok {
			if !lp.Class.Related(rp.Class) {
				c.errorf(x.Pos(), "comparing pointers to unrelated classes %s and %s", lp.Class.Name, rp.Class.Name)
			}
			return c.setType(x, Basic(Bool))
		}
		c.errorf(x.Pos(), "invalid comparison between %s and %s", lt, rt)
		return c.setType(x, Basic(Bool))
	case token.AND, token.OR:
		lb, lok := lt.(Basic)
		rb, rok := rt.(Basic)
		if !lok || lb != Bool || !rok || rb != Bool {
			c.errorf(x.Pos(), "operator %s requires boolean operands, got %s and %s", x.Op, lt, rt)
		}
		return c.setType(x, Basic(Bool))
	}
	c.errorf(x.Pos(), "unknown binary operator %s", x.Op)
	return c.setType(x, Basic(Int))
}

func (c *checker) checkAssign(x *ast.Assign) Type {
	lt := c.checkExpr(x.LHS)
	rt := c.checkExpr(x.RHS)
	if !isLvalue(x.LHS) {
		c.errorf(x.Pos(), "left side of assignment is not assignable")
		return c.setType(x, lt)
	}
	if x.Op == token.ASSIGN {
		c.checkAssignable(lt, rt, x.Pos(), "assignment")
	} else {
		// Compound assignment: numeric only.
		if !IsNumeric(lt) || !IsNumeric(rt) {
			c.errorf(x.Pos(), "compound assignment %s requires numeric operands, got %s and %s", x.Op, lt, rt)
		}
	}
	return c.setType(x, lt)
}

// isLvalue reports whether e denotes a storage location.
func isLvalue(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Sym == ast.SymLocal || x.Sym == ast.SymParam || x.Sym == ast.SymField
	case *ast.FieldAccess:
		return true
	case *ast.IndexExpr:
		return true
	}
	return false
}
