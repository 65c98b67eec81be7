// Package transform implements the loop-replacement transformation
// §4.8.1 and §7.2 of Rinard & Diniz 1996 describe: "For analysis
// purposes the compiler can also replace unanalyzable loops with tail
// recursive methods that perform the same computation." A while loop
// (or a for loop outside the recognized counted forms) inside a class
// method becomes a synthesized tail-recursive auxiliary method whose
// parameters are the loop's free local variables; the symbolic executor
// can then analyze the loop body as an ordinary operation, which lets
// computations like pointer-chasing list accumulations pass the
// commutativity test.
package transform

import (
	"fmt"
	"slices"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/printer"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

// Rewrite records one applied loop replacement.
type Rewrite struct {
	Method string // the method that contained the loop
	Helper string // the synthesized tail-recursive method
}

// WhileToRecursion rewrites eligible while loops as ReplaceLoops does
// and returns the rewritten file printed as source text, together with
// the rewrites performed.
func WhileToRecursion(prog *types.Program, file *ast.File) (string, []Rewrite) {
	rewrites := ReplaceLoops(prog, file)
	return printer.File(file), rewrites
}

// ReplaceLoops rewrites eligible while loops of the checked program in
// place and returns the rewrites performed; the caller checks file
// again before analyzing it. Every node it synthesizes takes the
// position of the loop it replaces, so positions still point into the
// source file was parsed from. Loops are eligible when:
//
//   - they appear in a class method (the recursion needs a receiver);
//   - the body contains no return statement;
//   - every local variable the loop references has a parameter-passable
//     type (primitives and class pointers — no local arrays);
//   - no local the loop modifies is used after the loop.
func ReplaceLoops(prog *types.Program, file *ast.File) []Rewrite {
	t := &transformer{prog: prog, file: file}
	for _, m := range prog.Methods {
		if m.Class == nil || m.Def == nil {
			continue
		}
		t.method(m)
	}
	return t.rewrites
}

type transformer struct {
	prog     *types.Program
	file     *ast.File
	rewrites []Rewrite
	seq      int
}

func (t *transformer) method(m *types.Method) {
	t.rewriteStmts(m, m.Def.Body.Stmts, m.Def.Body)
}

// rewriteStmts replaces eligible while loops within a statement list
// (recursing into compound statements first).
func (t *transformer) rewriteStmts(m *types.Method, ss []ast.Stmt, parent *ast.Block) {
	for i, s := range ss {
		switch x := s.(type) {
		case *ast.Block:
			t.rewriteStmts(m, x.Stmts, x)
		case *ast.IfStmt:
			t.rewriteChild(m, x.Then, func(n ast.Stmt) { x.Then = n })
			if x.Else != nil {
				t.rewriteChild(m, x.Else, func(n ast.Stmt) { x.Else = n })
			}
		case *ast.ForStmt:
			t.rewriteChild(m, x.Body, func(n ast.Stmt) { x.Body = n })
		case *ast.WhileStmt:
			if call, helper, ok := t.extract(m, x, ss[i+1:]); ok {
				parent.Stmts[i] = call
				t.install(m, helper)
			} else {
				t.rewriteChild(m, x.Body, func(n ast.Stmt) { x.Body = n })
			}
		}
	}
}

// rewriteChild handles a single-statement child (if/for bodies).
func (t *transformer) rewriteChild(m *types.Method, s ast.Stmt, set func(ast.Stmt)) {
	switch x := s.(type) {
	case *ast.Block:
		t.rewriteStmts(m, x.Stmts, x)
	case *ast.WhileStmt:
		// A while loop as a bare branch body: it has no trailing
		// statements in its scope, so liveness-after is empty.
		if call, helper, ok := t.extract(m, x, nil); ok {
			set(call)
			t.install(m, helper)
		} else {
			t.rewriteChild(m, x.Body, func(n ast.Stmt) { x.Body = n })
		}
	}
}

// extract builds the tail-recursive helper for a while loop.
func (t *transformer) extract(m *types.Method, w *ast.WhileStmt, after []ast.Stmt) (ast.Stmt, *ast.MethodDef, bool) {
	if containsReturn(w) {
		return nil, nil, false
	}
	free := t.freeLocals(m, w)
	if free == nil {
		return nil, nil, false
	}
	// Locals assigned in the loop must be dead afterwards.
	assigned := assignedLocals(w)
	for _, s := range after {
		for name := range assigned {
			if mentions(s, name) {
				return nil, nil, false
			}
		}
	}

	t.seq++
	helperName := fmt.Sprintf("%s__loop%d", m.Name, t.seq)

	// Parameters: the free locals, with their declared types. Every
	// synthesized node sits at the loop.
	pos := w.TokPos
	var params []*ast.Param
	for _, fl := range free {
		fl.typ.TokPos = pos
		params = append(params, &ast.Param{Name: fl.name, Type: fl.typ, TokPos: pos})
	}

	// Helper body: if (cond) { body...; this->helper(locals); }.
	recurse := &ast.ExprStmt{X: &ast.CallExpr{
		Method: helperName, Args: freeArgs(free, pos), Site: -1, TokPos: pos,
	}}
	var bodyStmts []ast.Stmt
	if b, ok := w.Body.(*ast.Block); ok {
		bodyStmts = append(bodyStmts, b.Stmts...)
	} else {
		bodyStmts = append(bodyStmts, w.Body)
	}
	bodyStmts = append(bodyStmts, recurse)
	helper := &ast.MethodDef{
		ClassName: m.Class.Name,
		Name:      helperName,
		RetType:   &ast.TypeExpr{Kind: ast.TVoid, TokPos: pos},
		Params:    params,
		Body: &ast.Block{Stmts: []ast.Stmt{
			&ast.IfStmt{Cond: w.Cond, Then: &ast.Block{Stmts: bodyStmts, TokPos: pos}, TokPos: pos},
		}, TokPos: pos},
		TokPos: pos,
	}

	call := &ast.ExprStmt{X: &ast.CallExpr{Method: helperName, Args: freeArgs(free, pos), Site: -1, TokPos: pos}}
	t.rewrites = append(t.rewrites, Rewrite{Method: m.FullName(), Helper: m.Class.Name + "::" + helperName})
	return call, helper, true
}

// install adds the helper's prototype to the class declaration and its
// definition to the file.
func (t *transformer) install(m *types.Method, helper *ast.MethodDef) {
	for _, d := range t.file.Decls {
		if cd, ok := d.(*ast.ClassDecl); ok && cd.Name == m.Class.Name {
			cd.Protos = append(cd.Protos, &ast.MethodProto{
				Name:    helper.Name,
				RetType: helper.RetType,
				Params:  helper.Params,
				Public:  true,
				TokPos:  helper.TokPos,
			})
		}
	}
	t.file.Decls = append(t.file.Decls, helper)
}

// freeLocal is one loop-referenced local with its declared type.
type freeLocal struct {
	name string
	typ  *ast.TypeExpr
}

// freeLocals collects the locals and parameters the loop references, in
// name-sorted order, each with the parameter type typeExprOf gives it;
// nil when typeExprOf gives one none (it cannot be passed by value).
func (t *transformer) freeLocals(m *types.Method, w *ast.WhileStmt) []freeLocal {
	names := map[string]bool{}
	declaredInside := map[string]bool{}
	ast.Inspect(w.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok {
			declaredInside[d.Name] = true
		}
		return true
	})
	collect := func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if id.Sym != ast.SymLocal && id.Sym != ast.SymParam {
			return true
		}
		if declaredInside[id.Name] {
			return true
		}
		names[id.Name] = true
		return true
	}
	ast.Inspect(w.Cond, collect)
	ast.Inspect(w.Body, collect)

	var out []freeLocal
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	slices.Sort(ordered)
	for _, name := range ordered {
		te := t.typeExprOf(m, name)
		if te == nil {
			return nil
		}
		out = append(out, freeLocal{name: name, typ: te})
	}
	if out == nil {
		out = []freeLocal{} // a loop with no free locals is still eligible
	}
	return out
}

// typeExprOf reconstructs a parameter type expression for a local or
// parameter, or nil when the type cannot be passed by value.
func (t *transformer) typeExprOf(m *types.Method, name string) *ast.TypeExpr {
	var typ types.Type
	if p := m.ParamByName(name); p != nil {
		typ = p.Type
	} else if lt, ok := m.LocalType(name); ok {
		typ = lt
	} else {
		return nil
	}
	switch tt := typ.(type) {
	case types.Basic:
		switch tt {
		case types.Int:
			return &ast.TypeExpr{Kind: ast.TInt}
		case types.Double:
			return &ast.TypeExpr{Kind: ast.TDouble}
		case types.Bool:
			return &ast.TypeExpr{Kind: ast.TBool}
		}
	case types.Pointer:
		return &ast.TypeExpr{Kind: ast.TClass, ClassName: tt.Class.Name, Ptr: true}
	}
	return nil // arrays and reference parameters are not passable
}

// freeArgs builds the argument list passing the free locals, at pos.
func freeArgs(free []freeLocal, pos token.Pos) []ast.Expr {
	out := make([]ast.Expr, len(free))
	for i, fl := range free {
		out[i] = &ast.Ident{Name: fl.name, TokPos: pos}
	}
	return out
}

func containsReturn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.ReturnStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// assignedLocals collects local names the loop assigns.
func assignedLocals(n ast.Node) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		if asn, ok := x.(*ast.Assign); ok {
			if id, ok2 := asn.LHS.(*ast.Ident); ok2 &&
				(id.Sym == ast.SymLocal || id.Sym == ast.SymParam) {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// mentions reports whether the subtree references the named identifier.
func mentions(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
