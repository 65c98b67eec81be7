// Package parser implements a recursive-descent parser for the mini-C++
// dialect (the §6.1 subset of Rinard & Diniz 1996): classes with single
// public inheritance, out-of-line method definitions, class-typed global
// variables, named constants, and free functions such as main.
package parser

import (
	"fmt"
	"strconv"

	"commute/internal/frontend/ast"
	"commute/internal/frontend/lexer"
	"commute/internal/frontend/token"
)

// Parser parses one source file.
type Parser struct {
	lex    *lexer.Lexer
	errors []error

	// tok is the current token. Three sites look further — `Class * x`
	// at the start of a statement (two tokens) and the C-style cast
	// `(Class *)` (three) — and ahead holds the nahead tokens they
	// scanned past tok, the next one first.
	tok    token.Token
	ahead  [3]token.Token
	nahead int

	// examined is false from the moment next makes a freshly scanned
	// token current until a failed expect or a stopped sync looks at
	// it; tokErrs is the lexer's error count before that scan. Parse
	// uses both when it stops early: a token no decision looked at
	// reports no lexical error.
	examined bool
	tokErrs  int

	// classNames tracks class declarations seen so far, used to
	// disambiguate local variable declarations from expressions.
	classNames map[string]bool

	// stmts and exprs hold the statements of the blocks and the
	// arguments of the calls being parsed, innermost last; each list is
	// copied out at its exact length when it ends (see cut).
	stmts []ast.Stmt
	exprs []ast.Expr

	// The nodes a program has most of come out of slabs.
	idents  slab[ast.Ident]
	fields  slab[ast.FieldAccess]
	indexes slab[ast.IndexExpr]
	binarys slab[ast.Binary]
	assigns slab[ast.Assign]
	ints    slab[ast.IntLit]
	types   slab[ast.TypeExpr]
	exprSts slab[ast.ExprStmt]
}

// slab carves nodes of one type out of chunks, one allocation for
// slabChunk nodes instead of one each.
type slab[T any] []T

const slabChunk = 8

// add returns a slab node holding v.
func (s *slab[T]) add(v T) *T {
	if len(*s) == 0 {
		*s = make([]T, slabChunk)
	}
	n := &(*s)[0]
	*s = (*s)[1:]
	*n = v
	return n
}

// cut pops (*stack)[mark:] and returns it as a slice of its own, nil
// when it is empty.
func cut[T any](stack *[]T, mark int) []T {
	s := *stack
	if len(s) == mark {
		return nil
	}
	out := make([]T, len(s)-mark)
	copy(out, s[mark:])
	*stack = s[:mark]
	return out
}

// Parse parses src (named name in diagnostics) and returns the file.
// It returns an error summarizing the first few syntax errors, if any.
func Parse(name, src string) (*ast.File, error) {
	p := &Parser{lex: lexer.New(src), classNames: make(map[string]bool)}
	p.tok.Kind, p.tok.Lit, p.tok.Pos = p.lex.Scan()
	file := &ast.File{Name: name, Size: len(src)}
	for p.tok.Kind != token.EOF {
		before := p.tok.Pos
		d := p.parseDecl()
		if d != nil {
			file.Decls = append(file.Decls, d)
		}
		if len(p.errors) > 12 {
			if !p.examined {
				p.lex.Truncate(p.tokErrs)
			}
			break
		}
		// Guarantee progress even on malformed input.
		if p.tok.Pos == before && d == nil {
			p.next()
		}
	}
	p.errors = append(p.lex.Errors(), p.errors...)
	if len(p.errors) > 0 {
		msg := ""
		for i, e := range p.errors {
			if i > 0 {
				msg += "\n"
			}
			msg += name + ":" + e.Error()
		}
		return file, fmt.Errorf("%s", msg)
	}
	return file, nil
}

// next advances to the following token.
func (p *Parser) next() {
	p.examined = false
	if p.nahead == 0 {
		p.tokErrs = len(p.lex.Errors())
		p.tok.Kind, p.tok.Lit, p.tok.Pos = p.lex.Scan()
		return
	}
	p.tok = p.ahead[0]
	p.nahead--
	copy(p.ahead[:p.nahead], p.ahead[1:])
	p.tokErrs = len(p.lex.Errors())
}

// peekAt returns the token n places past the current one (1 ≤ n ≤ 3),
// scanning it if no earlier lookahead has.
func (p *Parser) peekAt(n int) *token.Token {
	for ; p.nahead < n; p.nahead++ {
		t := &p.ahead[p.nahead]
		t.Kind, t.Lit, t.Pos = p.lex.Scan()
	}
	return &p.ahead[n-1]
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errors = append(p.errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// expect consumes the current token if it has kind k, otherwise records
// an error and leaves it current. It returns the token either way.
func (p *Parser) expect(k token.Kind) token.Token {
	t := p.tok
	if t.Kind != k {
		p.examined = true
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return t
	}
	p.next()
	return t
}

func (p *Parser) accept(k token.Kind) bool {
	if p.tok.Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until after the next semicolon or to a closing
// brace/EOF, for error recovery.
func (p *Parser) sync() {
	for {
		switch p.tok.Kind {
		case token.SEMI:
			p.next()
			return
		case token.RBRACE, token.EOF:
			p.examined = true
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------------
// Declarations

func (p *Parser) parseDecl() ast.Decl {
	switch p.tok.Kind {
	case token.KWCLASS:
		return p.parseClassDecl()
	case token.KWCONST:
		return p.parseConstDecl()
	case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN, token.KWVOID:
		return p.parseMethodOrGlobal()
	case token.IDENT:
		if p.classNames[p.tok.Lit] {
			return p.parseMethodOrGlobal()
		}
	}
	p.errorf(p.tok.Pos, "unexpected %s at top level", p.tok)
	p.sync()
	return nil
}

// parseBaseType parses `int|double|boolean|void|ClassName` with an
// optional trailing `*`.
func (p *Parser) parseBaseType() *ast.TypeExpr {
	t := p.tok
	p.next()
	te := p.types.add(ast.TypeExpr{TokPos: t.Pos})
	switch t.Kind {
	case token.KWINT:
		te.Kind = ast.TInt
	case token.KWDOUBLE:
		te.Kind = ast.TDouble
	case token.KWBOOLEAN:
		te.Kind = ast.TBool
	case token.KWVOID:
		te.Kind = ast.TVoid
	case token.IDENT:
		te.Kind = ast.TClass
		te.ClassName = t.Lit
	default:
		p.errorf(t.Pos, "expected type, found %s", t)
		te.Kind = ast.TInt
	}
	if p.accept(token.STAR) {
		te.Ptr = true
		// Tolerate `**` by treating it as a single indirection level;
		// the dialect does not model multi-level pointers.
		for p.accept(token.STAR) {
			p.errorf(t.Pos, "multi-level pointers are not in the dialect")
		}
	}
	return te
}

// parseArrayDims parses zero or more `[const-expr]` suffixes.
func (p *Parser) parseArrayDims(te *ast.TypeExpr) {
	for p.accept(token.LBRACKET) {
		if p.tok.Kind == token.RBRACKET {
			// `double v[]` — unsized reference-parameter array.
			te.ArrayDims = append(te.ArrayDims, nil)
		} else {
			te.ArrayDims = append(te.ArrayDims, p.parseExpr())
		}
		p.expect(token.RBRACKET)
	}
}

func (p *Parser) parseClassDecl() ast.Decl {
	start := p.expect(token.KWCLASS)
	nameTok := p.expect(token.IDENT)
	cd := &ast.ClassDecl{Name: nameTok.Lit, TokPos: start.Pos}
	p.classNames[cd.Name] = true
	if p.accept(token.COLON) {
		p.expect(token.KWPUBLIC)
		cd.Base = p.expect(token.IDENT).Lit
	}
	p.expect(token.LBRACE)
	public := false // C++ classes default to private
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		switch p.tok.Kind {
		case token.KWPUBLIC:
			p.next()
			p.expect(token.COLON)
			public = true
		case token.KWPRIVATE:
			p.next()
			p.expect(token.COLON)
			public = false
		default:
			p.parseMember(cd, public)
		}
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return cd
}

// parseMember parses one field declaration or method prototype inside a
// class body.
func (p *Parser) parseMember(cd *ast.ClassDecl, public bool) {
	te := p.parseBaseType()
	nameTok := p.expect(token.IDENT)
	if p.tok.Kind == token.LPAREN {
		// Method prototype or inline definition.
		params := p.parseParams()
		if p.tok.Kind == token.LBRACE {
			md := &ast.MethodDef{
				ClassName: cd.Name, Name: nameTok.Lit, RetType: te,
				Params: params, TokPos: nameTok.Pos,
			}
			md.Body = p.parseBlock()
			cd.Inline = append(cd.Inline, md)
			return
		}
		proto := &ast.MethodProto{
			Name: nameTok.Lit, RetType: te, Params: params,
			Public: public, TokPos: nameTok.Pos,
		}
		p.expect(token.SEMI)
		cd.Protos = append(cd.Protos, proto)
		return
	}
	// Field declaration; comma-separated declarators share the base
	// type, with each declarator carrying its own optional `*`, e.g.
	// `graph *left, *right;` or `int val, sum;`.
	base := *te
	for {
		p.parseArrayDims(te)
		cd.Fields = append(cd.Fields, &ast.FieldDecl{
			Name: nameTok.Lit, Type: te, Public: public, TokPos: nameTok.Pos,
		})
		if !p.accept(token.COMMA) {
			break
		}
		te = p.types.add(ast.TypeExpr{Kind: base.Kind, ClassName: base.ClassName, Ptr: p.accept(token.STAR), TokPos: base.TokPos})
		nameTok = p.expect(token.IDENT)
	}
	p.expect(token.SEMI)
}

func (p *Parser) parseConstDecl() ast.Decl {
	start := p.expect(token.KWCONST)
	te := p.parseBaseType()
	nameTok := p.expect(token.IDENT)
	// `=` is optional: the paper spells some constants `const int NDIM 3;`.
	p.accept(token.ASSIGN)
	val := p.parseExpr()
	p.expect(token.SEMI)
	return &ast.ConstDecl{Name: nameTok.Lit, Type: te, Value: val, TokPos: start.Pos}
}

// parseMethodOrGlobal parses either
//
//	type cl::name(params) { ... }   out-of-line method definition
//	type name(params) { ... }       free function definition
//	ClassName name;                 global variable
func (p *Parser) parseMethodOrGlobal() ast.Decl {
	te := p.parseBaseType()
	nameTok := p.expect(token.IDENT)
	switch p.tok.Kind {
	case token.SCOPE:
		p.next()
		// `double body::subdivp`: te is the return type and nameTok the
		// class name.
		methodTok := p.expect(token.IDENT)
		md := &ast.MethodDef{
			ClassName: nameTok.Lit,
			Name:      methodTok.Lit,
			RetType:   te,
			TokPos:    te.TokPos,
		}
		md.Params = p.parseParams()
		md.Body = p.parseBlock()
		return md
	case token.LPAREN:
		md := &ast.MethodDef{
			Name:    nameTok.Lit,
			RetType: te,
			TokPos:  te.TokPos,
		}
		md.Params = p.parseParams()
		md.Body = p.parseBlock()
		return md
	case token.SEMI:
		p.next()
		return &ast.GlobalVar{Name: nameTok.Lit, Type: te, TokPos: te.TokPos}
	default:
		p.errorf(p.tok.Pos, "expected '::', '(' or ';' after %q, found %s", nameTok.Lit, p.tok)
		p.sync()
		return nil
	}
}

func (p *Parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	var params []*ast.Param
	if p.tok.Kind != token.RPAREN {
		for {
			te := p.parseBaseType()
			nameTok := p.expect(token.IDENT)
			p.parseArrayDims(te)
			params = append(params, &ast.Param{Name: nameTok.Lit, Type: te, TokPos: nameTok.Pos})
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	return params
}

// ---------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.Block {
	start := p.expect(token.LBRACE)
	blk := &ast.Block{TokPos: start.Pos}
	mark := len(p.stmts)
	for p.tok.Kind != token.RBRACE && p.tok.Kind != token.EOF {
		before, n := p.tok.Pos, len(p.stmts)
		p.pushStmt()
		if p.tok.Pos == before && len(p.stmts) == n {
			p.next()
		}
	}
	blk.Stmts = cut(&p.stmts, mark)
	p.expect(token.RBRACE)
	return blk
}

// pushStmt parses one syntactic statement onto p.stmts. A local
// declaration pushes one DeclStmt per declarator (`double inc, r,
// drsq, d;` pushes four), an empty statement nothing.
func (p *Parser) pushStmt() {
	if p.atDecl() {
		p.parseDeclStmts()
		return
	}
	if s := p.parseOtherStmt(); s != nil {
		p.stmts = append(p.stmts, s)
	}
}

// atDecl reports whether the current token starts a local declaration:
// a basic type, or `ClassName * name`.
func (p *Parser) atDecl() bool {
	switch p.tok.Kind {
	case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN:
		return true
	case token.IDENT:
		return p.classNames[p.tok.Lit] && p.peekAt(1).Kind == token.STAR && p.peekAt(2).Kind == token.IDENT
	}
	return false
}

// parseStmt parses the single statement that is the body of an if, a
// for or a while. A declaration of several names there becomes a block.
func (p *Parser) parseStmt() ast.Stmt {
	if !p.atDecl() {
		return p.parseOtherStmt()
	}
	pos, mark := p.tok.Pos, len(p.stmts)
	p.parseDeclStmts()
	ss := cut(&p.stmts, mark)
	if len(ss) == 1 {
		return ss[0]
	}
	return &ast.Block{Stmts: ss, TokPos: pos}
}

// parseOtherStmt parses a statement that is not a local declaration; it
// returns nil for the empty statement.
func (p *Parser) parseOtherStmt() ast.Stmt {
	switch p.tok.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.KWIF:
		return p.parseIf()
	case token.KWFOR:
		return p.parseFor()
	case token.KWWHILE:
		return p.parseWhile()
	case token.KWRETURN:
		rs := &ast.ReturnStmt{TokPos: p.tok.Pos}
		p.next()
		if p.tok.Kind != token.SEMI {
			rs.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		return rs
	case token.SEMI:
		p.next()
		return nil
	default:
		return p.parseExprStmt()
	}
}

// parseDeclStmts parses a local declaration statement with one or more
// comma-separated declarators sharing the base type onto p.stmts. Each
// declarator may carry its own `*` and array dimensions.
func (p *Parser) parseDeclStmts() {
	te := p.parseBaseType()
	base := *te
	for {
		nameTok := p.expect(token.IDENT)
		p.parseArrayDims(te)
		ds := &ast.DeclStmt{Name: nameTok.Lit, Type: te, TokPos: te.TokPos}
		if p.accept(token.ASSIGN) {
			ds.Init = p.parseExpr()
		}
		p.stmts = append(p.stmts, ds)
		if !p.accept(token.COMMA) {
			break
		}
		// Declarators after the first carry their own optional `*`.
		te = p.types.add(ast.TypeExpr{Kind: base.Kind, ClassName: base.ClassName, Ptr: p.accept(token.STAR), TokPos: base.TokPos})
	}
	p.expect(token.SEMI)
}

func (p *Parser) parseExprStmt() ast.Stmt {
	e := p.parseExpr()
	p.expect(token.SEMI)
	return p.exprSts.add(ast.ExprStmt{X: e})
}

func (p *Parser) parseIf() ast.Stmt {
	start := p.expect(token.KWIF)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KWELSE) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{Cond: cond, Then: then, Else: els, TokPos: start.Pos}
}

func (p *Parser) parseFor() ast.Stmt {
	start := p.expect(token.KWFOR)
	p.expect(token.LPAREN)
	fs := &ast.ForStmt{TokPos: start.Pos}
	switch p.tok.Kind {
	case token.SEMI:
	case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN:
		te := p.parseBaseType()
		nameTok := p.expect(token.IDENT)
		ds := &ast.DeclStmt{Name: nameTok.Lit, Type: te, TokPos: te.TokPos}
		if p.accept(token.ASSIGN) {
			ds.Init = p.parseExpr()
		}
		fs.Init = ds
	default:
		fs.Init = p.exprSts.add(ast.ExprStmt{X: p.parseExpr()})
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.SEMI {
		fs.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.tok.Kind != token.RPAREN {
		fs.Post = p.exprSts.add(ast.ExprStmt{X: p.parseExpr()})
	}
	p.expect(token.RPAREN)
	fs.Body = p.parseStmt()
	return fs
}

func (p *Parser) parseWhile() ast.Stmt {
	start := p.expect(token.KWWHILE)
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	body := p.parseStmt()
	return &ast.WhileStmt{Cond: cond, Body: body, TokPos: start.Pos}
}

// ---------------------------------------------------------------------
// Expressions

// parseExpr parses an expression, including assignments (right
// associative, lowest precedence).
func (p *Parser) parseExpr() ast.Expr {
	lhs := p.parseBinary(1)
	if op, pos := p.tok.Kind, p.tok.Pos; op.IsAssign() {
		p.next()
		rhs := p.parseExpr()
		return p.assigns.add(ast.Assign{Op: op, LHS: lhs, RHS: rhs, TokPos: pos})
	}
	return lhs
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		op, pos := p.tok.Kind, p.tok.Pos
		prec := op.Precedence()
		if prec < minPrec || prec == 0 {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = p.binarys.add(ast.Binary{Op: op, X: lhs, Y: rhs, TokPos: pos})
	}
}

func (p *Parser) parseUnary() ast.Expr {
	op, pos := p.tok.Kind, p.tok.Pos
	switch op {
	case token.MINUS, token.NOT:
		p.next()
		return &ast.Unary{Op: op, X: p.parseUnary(), TokPos: pos}
	case token.PLUS:
		p.next()
		return p.parseUnary()
	case token.INC, token.DEC:
		p.next()
		return incDec(op, p.parseUnary(), pos)
	}
	return p.parsePostfix()
}

// incDec desugars `++x`, `x++`, `--x` and `x--` to `x += 1` / `x -= 1`.
func incDec(op token.Kind, x ast.Expr, pos token.Pos) *ast.Assign {
	asn := token.PLUSEQ
	if op == token.DEC {
		asn = token.MINUSEQ
	}
	return &ast.Assign{Op: asn, LHS: x, RHS: &ast.IntLit{Value: 1, TokPos: pos}, TokPos: pos}
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		op, pos := p.tok.Kind, p.tok.Pos
		switch op {
		case token.DOT, token.ARROW:
			p.next()
			nameTok := p.expect(token.IDENT)
			arrow := op == token.ARROW
			if p.tok.Kind == token.LPAREN {
				call := &ast.CallExpr{
					Recv: x, Arrow: arrow, Method: nameTok.Lit, Site: -1, TokPos: nameTok.Pos,
				}
				call.Args = p.parseArgs()
				x = call
			} else {
				x = p.fields.add(ast.FieldAccess{X: x, Name: nameTok.Lit, Arrow: arrow, TokPos: nameTok.Pos})
			}
		case token.LBRACKET:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			x = p.indexes.add(ast.IndexExpr{X: x, Index: idx, TokPos: pos})
		case token.INC, token.DEC:
			p.next()
			x = incDec(op, x, pos)
		default:
			return x
		}
	}
}

func (p *Parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	mark := len(p.exprs)
	if p.tok.Kind != token.RPAREN {
		for {
			x := p.parseExpr()
			p.exprs = append(p.exprs, x)
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	args := cut(&p.exprs, mark)
	p.expect(token.RPAREN)
	return args
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.tok
	switch t.Kind {
	case token.IDENT:
		p.next()
		if p.tok.Kind == token.LPAREN {
			call := &ast.CallExpr{Method: t.Lit, Site: -1, TokPos: t.Pos}
			call.Args = p.parseArgs()
			return call
		}
		return p.idents.add(ast.Ident{Name: t.Lit, TokPos: t.Pos})
	case token.INTLIT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "bad integer literal %q", t.Lit)
		}
		return p.ints.add(ast.IntLit{Value: v, TokPos: t.Pos})
	case token.FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(t.Lit, 64)
		if err != nil {
			p.errorf(t.Pos, "bad float literal %q", t.Lit)
		}
		return &ast.FloatLit{Value: v, TokPos: t.Pos}
	case token.STRINGLIT:
		p.next()
		return &ast.StringLit{Value: t.Lit, TokPos: t.Pos}
	case token.KWTRUE, token.KWFALSE:
		p.next()
		return &ast.BoolLit{Value: t.Kind == token.KWTRUE, TokPos: t.Pos}
	case token.KWNULL:
		p.next()
		return &ast.NullLit{TokPos: t.Pos}
	case token.KWTHIS:
		p.next()
		return &ast.ThisExpr{TokPos: t.Pos}
	case token.KWNEW:
		p.next()
		nameTok := p.expect(token.IDENT)
		// Tolerate `new cl()`.
		if p.accept(token.LPAREN) {
			p.expect(token.RPAREN)
		}
		return &ast.NewExpr{ClassName: nameTok.Lit, TokPos: t.Pos}
	case token.KWCAST:
		p.next()
		p.expect(token.LT)
		nameTok := p.expect(token.IDENT)
		p.expect(token.STAR)
		p.expect(token.GT)
		p.expect(token.LPAREN)
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return &ast.CastExpr{ClassName: nameTok.Lit, X: x, Dynamic: true, TokPos: t.Pos}
	case token.LPAREN:
		// C-style pointer cast `(cl*)expr` or a parenthesized expression.
		if n := p.peekAt(1); n.Kind == token.IDENT && p.classNames[n.Lit] &&
			p.peekAt(2).Kind == token.STAR && p.peekAt(3).Kind == token.RPAREN {
			name := n.Lit
			p.next()
			p.next()
			p.next() // *
			p.next() // )
			x := p.parseUnary()
			return &ast.CastExpr{ClassName: name, X: x, Dynamic: false, TokPos: t.Pos}
		}
		p.next()
		x := p.parseExpr()
		p.expect(token.RPAREN)
		return x
	default:
		p.errorf(t.Pos, "unexpected %s in expression", t)
		p.next()
		return &ast.IntLit{Value: 0, TokPos: t.Pos}
	}
}
