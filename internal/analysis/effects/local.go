package effects

import (
	"commute/internal/frontend/ast"
	"commute/internal/frontend/token"
	"commute/internal/frontend/types"
)

// RecvKind classifies the receiver actual at a call site.
type RecvKind int

// Receiver-actual kinds.
const (
	RecvThis   RecvKind = iota // receiver is the caller's receiver
	RecvNested                 // receiver is a nested object (of this or of another object)
	RecvFree                   // receiver is an independent object (pointer, global)
)

// RecvActual describes the receiver expression at a call site.
type RecvActual struct {
	Kind RecvKind
	// For RecvNested: the nested-object path. ViaThis means the path is
	// rooted at the caller's receiver; otherwise Class is the declaring
	// class of the first path element.
	ViaThis bool
	Class   *types.Class
	Path    []string
}

// ActualKind classifies the actual bound to a formal reference
// parameter.
type ActualKind int

// Reference-actual kinds.
const (
	ActLocal ActualKind = iota // a local variable of the caller
	ActParam                   // the caller's own reference parameter
	ActField                   // an instance-variable array
	ActOther                   // anything else (unanalyzable reference actual)
)

// ActualRef is the actual argument bound to a formal reference
// parameter at a call site.
type ActualRef struct {
	Kind  ActualKind
	Name  string // local or parameter name
	Field Desc   // for ActField
}

// CallContext is the locally extracted information about one call site.
type CallContext struct {
	Site *types.CallSite
	Recv RecvActual
	// Refs maps the callee's formal reference-parameter names to the
	// actuals bound at this site.
	Refs map[string]ActualRef
}

// MethodInfo is the cached local analysis of one method: its direct
// memory accesses, call contexts, and purity flags. A MethodInfo is
// immutable once published by Analyzer.Info; the §4.2 dep sets live in
// a separate per-caller memo (see Analyzer.Dep) because they need the
// transitive effects of callees and are computed lazily.
type MethodInfo struct {
	M *types.Method

	// Reads and Writes are the method's direct (non-transitive) memory
	// accesses: receiver-relative field descriptors, absolute field
	// descriptors, and reference-parameter descriptors. Local-variable
	// accesses are not memory effects and are omitted.
	Reads  *Set
	Writes *Set

	// Calls holds one CallContext per non-builtin call site, in source
	// order.
	Calls []CallContext

	// CreatesObject and PerformsIO are the direct purity flags.
	CreatesObject bool
	PerformsIO    bool

	// WritesNonLvalue records a write through a non-analyzable lvalue;
	// none exist in the dialect, kept for safety.
	WritesNonLvalue bool
}

// localAnalysis extracts MethodInfo for m.
func (a *Analyzer) localAnalysis(m *types.Method) *MethodInfo {
	info := &MethodInfo{
		M:      m,
		Reads:  NewSet(),
		Writes: NewSet(),
	}
	if m.Def == nil {
		return info
	}
	w := &localWalker{resolver: resolver{a.Prog, m}, in: &a.in, info: info}
	w.stmt(m.Def.Body)
	return info
}

// localWalker walks one method body collecting direct accesses and call
// contexts.
type localWalker struct {
	resolver
	in   *interner
	info *MethodInfo
}

// resolver resolves the access expressions of one method to storage
// descriptors.
type resolver struct {
	prog *types.Program
	m    *types.Method
}

func (w *localWalker) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.Block:
		for _, sub := range st.Stmts {
			w.stmt(sub)
		}
	case *ast.DeclStmt:
		if st.Init != nil {
			w.read(st.Init)
		}
	case *ast.ExprStmt:
		w.effectExpr(st.X)
	case *ast.IfStmt:
		w.read(st.Cond)
		w.stmt(st.Then)
		if st.Else != nil {
			w.stmt(st.Else)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.read(st.Cond)
		}
		if st.Post != nil {
			w.stmt(st.Post)
		}
		w.stmt(st.Body)
	case *ast.WhileStmt:
		w.read(st.Cond)
		w.stmt(st.Body)
	case *ast.ReturnStmt:
		if st.X != nil {
			w.read(st.X)
		}
	}
}

// effectExpr handles an expression in statement position (assignments
// and calls).
func (w *localWalker) effectExpr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Assign:
		w.write(x.LHS)
		if x.Op != token.ASSIGN {
			w.read(x.LHS) // compound assignment reads the target
		}
		// Index expressions and chains on the LHS read their bases and
		// indices.
		w.lhsSubReads(x.LHS)
		w.read(x.RHS)
	default:
		w.read(e)
	}
}

// lhsSubReads collects the reads performed while *locating* an lvalue:
// array indices and pointer bases.
func (w *localWalker) lhsSubReads(e ast.Expr) {
	switch x := e.(type) {
	case *ast.IndexExpr:
		w.read(x.Index)
		w.lhsSubReads(x.X)
	case *ast.FieldAccess:
		// The base chain up to a pointer dereference is read.
		if _, ok := w.prog.TypeOf(x.X).(types.Pointer); ok {
			w.read(x.X)
		} else {
			w.lhsSubReads(x.X)
		}
	}
}

// write records the lvalue target of an assignment.
func (w *localWalker) write(e ast.Expr) {
	d, kind := w.accessDesc(e)
	switch kind {
	case accField, accRefParam:
		w.info.Writes.add(w.in.get(d))
	case accLocal, accValue:
		// Local writes are not memory effects.
	default:
		w.info.WritesNonLvalue = true
	}
}

// read walks an rvalue expression recording every memory read.
func (w *localWalker) read(e ast.Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		d, kind := w.accessDesc(x)
		if kind == accField || kind == accRefParam {
			// Reading an object-typed identifier is not a memory read;
			// accessDesc already filters that case to accValue.
			w.info.Reads.add(w.in.get(d))
		}
	case *ast.FieldAccess:
		d, kind := w.accessDesc(x)
		if kind == accField || kind == accRefParam {
			w.info.Reads.add(w.in.get(d))
		}
		// Walk the base: pointer dereferences read the pointer.
		w.read(x.X)
	case *ast.IndexExpr:
		d, kind := w.accessDesc(x)
		if kind == accField || kind == accRefParam {
			w.info.Reads.add(w.in.get(d))
		}
		w.read(x.Index)
		// The array base chain may itself read (e.g. c->subp[i] reads
		// nothing extra for c, a local, but l->bodyp[i] reads the
		// pointer l only if l is an ivar — handled by recursing into
		// non-array portions).
		if fa, ok := x.X.(*ast.FieldAccess); ok {
			w.read(fa.X)
		}
	case *ast.CallExpr:
		w.call(x)
	case *ast.Assign:
		w.effectExpr(x)
	case *ast.Unary:
		w.read(x.X)
	case *ast.Binary:
		w.read(x.X)
		w.read(x.Y)
	case *ast.CastExpr:
		w.read(x.X)
	case *ast.NewExpr:
		w.info.CreatesObject = true
	case *ast.ThisExpr, *ast.IntLit, *ast.FloatLit, *ast.BoolLit,
		*ast.NullLit, *ast.StringLit:
		// No memory effects.
	}
}

// call records a call context and the reads of its receiver and value
// arguments.
func (w *localWalker) call(x *ast.CallExpr) {
	if x.Builtin {
		b := types.Builtins[x.Method]
		if b != nil && b.IsIO {
			w.info.PerformsIO = true
		}
		for _, arg := range x.Args {
			w.read(arg)
		}
		return
	}
	site := w.prog.CallSites[x.Site]
	cc := CallContext{
		Site: site,
		Recv: w.recvActual(x.Recv),
		Refs: make(map[string]ActualRef),
	}
	if x.Recv != nil {
		w.read(x.Recv)
	}
	for i, arg := range x.Args {
		if i >= len(site.Callee.Params) {
			continue
		}
		p := site.Callee.Params[i]
		if p.IsRef() {
			cc.Refs[p.Name] = w.refActual(arg)
			// Passing a reference is taking an address, not a read.
			continue
		}
		w.read(arg)
	}
	w.info.Calls = append(w.info.Calls, cc)
}

// recvActual classifies a receiver expression.
func (w *localWalker) recvActual(recv ast.Expr) RecvActual {
	if recv == nil {
		return RecvActual{Kind: RecvThis}
	}
	switch x := recv.(type) {
	case *ast.ThisExpr:
		return RecvActual{Kind: RecvThis}
	case *ast.Ident:
		switch x.Sym {
		case ast.SymField:
			// A nested object of the receiver, e.g. acc.vecAdd(...).
			if _, ok := w.prog.TypeOf(x).(types.Object); ok {
				return RecvActual{
					Kind: RecvNested, ViaThis: true,
					Class: w.prog.Classes[x.FieldClass],
					Path:  []string{x.Name},
				}
			}
		case ast.SymGlobal:
			// A global object: fields normalize by declaring class, the
			// same as a free receiver.
			return RecvActual{Kind: RecvFree}
		}
		return RecvActual{Kind: RecvFree}
	case *ast.FieldAccess:
		// Object-valued chains: extend the nested path.
		if _, ok := w.prog.TypeOf(x).(types.Object); ok {
			base := w.recvActual(x.X)
			switch base.Kind {
			case RecvThis:
				return RecvActual{
					Kind: RecvNested, ViaThis: true,
					Class: w.prog.Classes[x.DeclClass],
					Path:  []string{x.Name},
				}
			case RecvNested:
				return RecvActual{
					Kind: RecvNested, ViaThis: base.ViaThis,
					Class: base.Class,
					Path:  append(append([]string{}, base.Path...), x.Name),
				}
			default:
				// Nested object of a free object, e.g. n->pos.m(...).
				return RecvActual{
					Kind: RecvNested, ViaThis: false,
					Class: w.prog.Classes[x.DeclClass],
					Path:  []string{x.Name},
				}
			}
		}
		return RecvActual{Kind: RecvFree}
	default:
		return RecvActual{Kind: RecvFree}
	}
}

// refActual classifies the actual bound to a reference parameter.
func (w *localWalker) refActual(arg ast.Expr) ActualRef {
	switch x := arg.(type) {
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal:
			return ActualRef{Kind: ActLocal, Name: x.Name}
		case ast.SymParam:
			return ActualRef{Kind: ActParam, Name: x.Name}
		case ast.SymField:
			return ActualRef{
				Kind:  ActField,
				Field: ThisField(w.prog.Classes[x.FieldClass], nil, x.Name),
			}
		}
	case *ast.FieldAccess:
		if d, kind := w.accessDesc(x); kind == accField {
			return ActualRef{Kind: ActField, Field: d}
		}
	}
	return ActualRef{Kind: ActOther}
}

// accessKind classifies what an access expression resolves to.
type accessKind int

const (
	accField    accessKind = iota // an instance-variable descriptor
	accRefParam                   // a reference parameter of this method
	accLocal                      // a local variable
	accValue                      // no memory location (value params, objects)
	accUnknown
)

// accessDesc resolves an lvalue-shaped expression to a storage
// descriptor.
func (w resolver) accessDesc(e ast.Expr) (Desc, accessKind) {
	switch x := e.(type) {
	case *ast.Ident:
		switch x.Sym {
		case ast.SymLocal:
			return Local(w.m, x.Name), accLocal
		case ast.SymParam:
			p := w.m.ParamByName(x.Name)
			if p != nil && p.IsRef() {
				return Param(w.m, x.Name), accRefParam
			}
			return Desc{}, accValue
		case ast.SymField:
			t := w.prog.TypeOf(x)
			if _, isObj := t.(types.Object); isObj {
				return Desc{}, accValue // object identity, not storage
			}
			return ThisField(w.prog.Classes[x.FieldClass], nil, x.Name), accField
		case ast.SymGlobal, ast.SymConst:
			return Desc{}, accValue
		}
		return Desc{}, accUnknown
	case *ast.FieldAccess:
		t := w.prog.TypeOf(x)
		if _, isObj := t.(types.Object); isObj {
			return Desc{}, accValue
		}
		cl := w.prog.Classes[x.DeclClass]
		if cl == nil {
			return Desc{}, accUnknown
		}
		// Resolve the base chain.
		base, path, ok := w.baseChain(x.X)
		if !ok {
			return Desc{}, accUnknown
		}
		switch base {
		case chainThis:
			if len(path) == 0 {
				return ThisField(cl, nil, x.Name), accField
			}
			// The class of a nested chain is the declaring class of the
			// outermost path element.
			first := w.outerDeclClass(x.X, path)
			return ThisField(first, path, x.Name), accField
		case chainFree:
			if len(path) == 0 {
				return FieldDesc(cl, nil, x.Name), accField
			}
			first := w.outerDeclClass(x.X, path)
			return FieldDesc(first, path, x.Name), accField
		}
		return Desc{}, accUnknown
	case *ast.IndexExpr:
		d, kind := w.accessDesc(x.X)
		return d, kind
	}
	return Desc{}, accUnknown
}

// Resolver exposes access-descriptor resolution to other phases (the
// symbolic executor uses it to classify field reads).
type Resolver struct {
	r resolver
}

// NewResolver returns a resolver for accesses inside method m.
func NewResolver(prog *types.Program, m *types.Method) *Resolver {
	return &Resolver{resolver{prog, m}}
}

// AccessDesc resolves an lvalue-shaped expression to a storage
// descriptor; ok is false when the expression does not denote
// instance-variable or reference-parameter storage.
func (r *Resolver) AccessDesc(e ast.Expr) (Desc, bool) {
	d, kind := r.r.accessDesc(e)
	return d, kind == accField || kind == accRefParam
}

// chainBase classifies the root of a field-access chain.
type chainBase int

const (
	chainThis chainBase = iota // rooted at the receiver
	chainFree                  // rooted at a pointer, global, or other object
	chainBad
)

// baseChain resolves the object-valued base chain of a field access,
// returning the nested-object path (innermost last).
func (w resolver) baseChain(e ast.Expr) (chainBase, []string, bool) {
	switch x := e.(type) {
	case *ast.ThisExpr:
		return chainThis, nil, true
	case *ast.Ident:
		switch x.Sym {
		case ast.SymField:
			if _, ok := w.prog.TypeOf(x).(types.Object); ok {
				return chainThis, []string{x.Name}, true
			}
			// A pointer instance variable: the target object is free.
			return chainFree, nil, true
		case ast.SymGlobal:
			return chainFree, nil, true
		case ast.SymLocal, ast.SymParam:
			return chainFree, nil, true
		}
		return chainBad, nil, false
	case *ast.FieldAccess:
		t := w.prog.TypeOf(x)
		if _, isObj := t.(types.Object); isObj {
			base, path, ok := w.baseChain(x.X)
			if !ok {
				return chainBad, nil, false
			}
			return base, append(path, x.Name), true
		}
		// A pointer-valued field: dereferencing starts a free chain.
		return chainFree, nil, true
	case *ast.IndexExpr:
		// Array of pointers: element target is free.
		return chainFree, nil, true
	case *ast.CastExpr:
		return w.baseChain(x.X)
	case *ast.CallExpr:
		return chainFree, nil, true
	}
	return chainBad, nil, false
}

// outerDeclClass returns the declaring class of the outermost path
// element of a nested chain rooted at base.
func (w resolver) outerDeclClass(base ast.Expr, path []string) *types.Class {
	// Walk down to the innermost FieldAccess/Ident naming path[0].
	e := base
	for {
		switch x := e.(type) {
		case *ast.FieldAccess:
			if x.Name == path[0] && len(path) == 1 {
				return w.prog.Classes[x.DeclClass]
			}
			if x.Name == path[len(path)-1] {
				e = x.X
				path = path[:len(path)-1]
				continue
			}
			return w.prog.Classes[x.DeclClass]
		case *ast.Ident:
			if x.Sym == ast.SymField {
				return w.prog.Classes[x.FieldClass]
			}
			return w.m.Class
		default:
			if w.m.Class != nil {
				return w.m.Class
			}
			return nil
		}
	}
}
