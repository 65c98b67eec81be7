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

	// ring holds the n lookahead tokens, the next one at ring[head]. The
	// deepest lookahead is peekAt(3), the `)` of a cast `(Class *)`.
	ring    [4]token.Token
	head, n int

	// classNames tracks class declarations seen so far, used to
	// disambiguate local variable declarations from expressions.
	classNames map[string]bool
}

// Parse parses src (named name in diagnostics) and returns the file.
// It returns an error summarizing the first few syntax errors, if any.
func Parse(name, src string) (*ast.File, error) {
	p := &Parser{lex: lexer.New(src), classNames: make(map[string]bool)}
	file := &ast.File{Name: name, Size: len(src)}
	for p.peek().Kind != token.EOF {
		before := p.peek()
		d := p.parseDecl()
		if d != nil {
			file.Decls = append(file.Decls, d)
		}
		if len(p.errors) > 12 {
			break
		}
		// Guarantee progress even on malformed input.
		if p.peek() == before && d == nil {
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

func (p *Parser) peek() token.Token { return p.peekAt(0) }

func (p *Parser) peekAt(n int) token.Token {
	for p.n <= n {
		p.ring[(p.head+p.n)%len(p.ring)] = p.lex.Next()
		p.n++
	}
	return p.ring[(p.head+n)%len(p.ring)]
}

func (p *Parser) next() token.Token {
	t := p.peek()
	p.head = (p.head + 1) % len(p.ring)
	p.n--
	return t
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errors = append(p.errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// expect consumes the next token if it has kind k, otherwise records an
// error and returns the (unconsumed) token.
func (p *Parser) expect(k token.Kind) token.Token {
	t := p.peek()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		return t
	}
	return p.next()
}

func (p *Parser) accept(k token.Kind) bool {
	if p.peek().Kind == k {
		p.next()
		return true
	}
	return false
}

// sync skips tokens until after the next semicolon or to a closing
// brace/EOF, for error recovery.
func (p *Parser) sync() {
	for {
		switch p.peek().Kind {
		case token.SEMI:
			p.next()
			return
		case token.RBRACE, token.EOF:
			return
		}
		p.next()
	}
}

// ---------------------------------------------------------------------
// Declarations

func (p *Parser) parseDecl() ast.Decl {
	t := p.peek()
	switch t.Kind {
	case token.KWCLASS:
		return p.parseClassDecl()
	case token.KWCONST:
		return p.parseConstDecl()
	case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN, token.KWVOID:
		return p.parseMethodOrGlobal()
	case token.IDENT:
		if p.classNames[t.Lit] {
			return p.parseMethodOrGlobal()
		}
		p.errorf(t.Pos, "unexpected %s at top level", t)
		p.sync()
		return nil
	default:
		p.errorf(t.Pos, "unexpected %s at top level", t)
		p.sync()
		return nil
	}
}

// parseBaseType parses `int|double|boolean|void|ClassName` with an
// optional trailing `*`.
func (p *Parser) parseBaseType() *ast.TypeExpr {
	t := p.next()
	te := &ast.TypeExpr{TokPos: t.Pos}
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
	for p.peek().Kind == token.LBRACKET {
		p.next()
		if p.peek().Kind == token.RBRACKET {
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
	for p.peek().Kind != token.RBRACE && p.peek().Kind != token.EOF {
		switch p.peek().Kind {
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
	if p.peek().Kind == token.LPAREN {
		// Method prototype or inline definition.
		params := p.parseParams()
		if p.peek().Kind == token.LBRACE {
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
	for {
		fte := &ast.TypeExpr{
			Kind: te.Kind, ClassName: te.ClassName, Ptr: te.Ptr, TokPos: te.TokPos,
		}
		p.parseArrayDims(fte)
		cd.Fields = append(cd.Fields, &ast.FieldDecl{
			Name: nameTok.Lit, Type: fte, Public: public, TokPos: nameTok.Pos,
		})
		if !p.accept(token.COMMA) {
			break
		}
		ptr := p.accept(token.STAR)
		nameTok = p.expect(token.IDENT)
		te = &ast.TypeExpr{Kind: te.Kind, ClassName: te.ClassName, Ptr: ptr, TokPos: te.TokPos}
	}
	p.expect(token.SEMI)
}

func (p *Parser) parseConstDecl() ast.Decl {
	start := p.expect(token.KWCONST)
	te := p.parseBaseType()
	nameTok := p.expect(token.IDENT)
	var val ast.Expr
	if p.accept(token.ASSIGN) {
		val = p.parseExpr()
	} else {
		// Tolerate the paper's `const int NDIM 3;` spelling.
		val = p.parseExpr()
	}
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
	switch p.peek().Kind {
	case token.SCOPE:
		p.next()
		// te was actually the return type? No: `double body::subdivp` —
		// te is the return type and nameTok is the class name.
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
		p.errorf(p.peek().Pos, "expected '::', '(' or ';' after %q, found %s", nameTok.Lit, p.peek())
		p.sync()
		return nil
	}
}

func (p *Parser) parseParams() []*ast.Param {
	p.expect(token.LPAREN)
	var params []*ast.Param
	if p.peek().Kind != token.RPAREN {
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
	for p.peek().Kind != token.RBRACE && p.peek().Kind != token.EOF {
		before := p.peek()
		ss := p.parseStmtList()
		blk.Stmts = append(blk.Stmts, ss...)
		if p.peek() == before && len(ss) == 0 {
			p.next()
		}
	}
	p.expect(token.RBRACE)
	return blk
}

// parseStmtList parses one syntactic statement, which may expand into
// several AST statements (comma-separated local declarators such as
// `double inc, r, drsq, d;` become one DeclStmt each).
func (p *Parser) parseStmtList() []ast.Stmt {
	t := p.peek()
	switch t.Kind {
	case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN:
		return p.parseDeclStmts()
	case token.IDENT:
		if p.classNames[t.Lit] && p.peekAt(1).Kind == token.STAR && p.peekAt(2).Kind == token.IDENT {
			return p.parseDeclStmts()
		}
	}
	s := p.parseStmt()
	if s == nil {
		return nil
	}
	return []ast.Stmt{s}
}

func (p *Parser) parseStmt() ast.Stmt {
	t := p.peek()
	switch t.Kind {
	case token.LBRACE:
		return p.parseBlock()
	case token.KWIF:
		return p.parseIf()
	case token.KWFOR:
		return p.parseFor()
	case token.KWWHILE:
		return p.parseWhile()
	case token.KWRETURN:
		p.next()
		rs := &ast.ReturnStmt{TokPos: t.Pos}
		if p.peek().Kind != token.SEMI {
			rs.X = p.parseExpr()
		}
		p.expect(token.SEMI)
		return rs
	case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN:
		// A declaration used as a single-statement body; wrap multiple
		// declarators in a block.
		ss := p.parseDeclStmts()
		if len(ss) == 1 {
			return ss[0]
		}
		return &ast.Block{Stmts: ss, TokPos: t.Pos}
	case token.IDENT:
		// `ClassName *x;` declares a pointer local.
		if p.classNames[t.Lit] && p.peekAt(1).Kind == token.STAR && p.peekAt(2).Kind == token.IDENT {
			ss := p.parseDeclStmts()
			if len(ss) == 1 {
				return ss[0]
			}
			return &ast.Block{Stmts: ss, TokPos: t.Pos}
		}
		return p.parseExprStmt()
	case token.SEMI:
		p.next()
		return nil
	default:
		return p.parseExprStmt()
	}
}

// parseDeclStmts parses a local declaration statement with one or more
// comma-separated declarators sharing the base type. Each declarator
// may carry its own `*` and array dimensions.
func (p *Parser) parseDeclStmts() []ast.Stmt {
	te := p.parseBaseType()
	var out []ast.Stmt
	for {
		dte := &ast.TypeExpr{
			Kind: te.Kind, ClassName: te.ClassName, Ptr: te.Ptr, TokPos: te.TokPos,
		}
		nameTok := p.expect(token.IDENT)
		p.parseArrayDims(dte)
		ds := &ast.DeclStmt{Name: nameTok.Lit, Type: dte, TokPos: dte.TokPos}
		if p.accept(token.ASSIGN) {
			ds.Init = p.parseExpr()
		}
		out = append(out, ds)
		if !p.accept(token.COMMA) {
			break
		}
		// Declarators after the first carry their own optional `*`.
		ptr := p.accept(token.STAR)
		te = &ast.TypeExpr{Kind: te.Kind, ClassName: te.ClassName, Ptr: ptr, TokPos: te.TokPos}
	}
	p.expect(token.SEMI)
	return out
}

func (p *Parser) parseExprStmt() ast.Stmt {
	e := p.parseExpr()
	p.expect(token.SEMI)
	return &ast.ExprStmt{X: e}
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
	if p.peek().Kind != token.SEMI {
		switch p.peek().Kind {
		case token.KWINT, token.KWDOUBLE, token.KWBOOLEAN:
			te := p.parseBaseType()
			nameTok := p.expect(token.IDENT)
			ds := &ast.DeclStmt{Name: nameTok.Lit, Type: te, TokPos: te.TokPos}
			if p.accept(token.ASSIGN) {
				ds.Init = p.parseExpr()
			}
			fs.Init = ds
		default:
			fs.Init = &ast.ExprStmt{X: p.parseExpr()}
		}
	}
	p.expect(token.SEMI)
	if p.peek().Kind != token.SEMI {
		fs.Cond = p.parseExpr()
	}
	p.expect(token.SEMI)
	if p.peek().Kind != token.RPAREN {
		fs.Post = &ast.ExprStmt{X: p.parseExpr()}
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
	t := p.peek()
	if t.Kind.IsAssign() {
		p.next()
		rhs := p.parseExpr()
		return &ast.Assign{Op: t.Kind, LHS: lhs, RHS: rhs, TokPos: t.Pos}
	}
	return lhs
}

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		t := p.peek()
		prec := t.Kind.Precedence()
		if prec < minPrec || prec == 0 {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.Binary{Op: t.Kind, X: lhs, Y: rhs, TokPos: t.Pos}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	t := p.peek()
	switch t.Kind {
	case token.MINUS:
		p.next()
		return &ast.Unary{Op: token.MINUS, X: p.parseUnary(), TokPos: t.Pos}
	case token.NOT:
		p.next()
		return &ast.Unary{Op: token.NOT, X: p.parseUnary(), TokPos: t.Pos}
	case token.PLUS:
		p.next()
		return p.parseUnary()
	case token.INC, token.DEC:
		p.next()
		x := p.parseUnary()
		op := token.PLUSEQ
		if t.Kind == token.DEC {
			op = token.MINUSEQ
		}
		return &ast.Assign{Op: op, LHS: x, RHS: &ast.IntLit{Value: 1, TokPos: t.Pos}, TokPos: t.Pos}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		t := p.peek()
		switch t.Kind {
		case token.DOT, token.ARROW:
			p.next()
			nameTok := p.expect(token.IDENT)
			arrow := t.Kind == token.ARROW
			if p.peek().Kind == token.LPAREN {
				call := &ast.CallExpr{
					Recv: x, Arrow: arrow, Method: nameTok.Lit, Site: -1, TokPos: nameTok.Pos,
				}
				call.Args = p.parseArgs()
				x = call
			} else {
				x = &ast.FieldAccess{X: x, Name: nameTok.Lit, Arrow: arrow, TokPos: nameTok.Pos}
			}
		case token.LBRACKET:
			p.next()
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.IndexExpr{X: x, Index: idx, TokPos: t.Pos}
		case token.INC, token.DEC:
			p.next()
			op := token.PLUSEQ
			if t.Kind == token.DEC {
				op = token.MINUSEQ
			}
			x = &ast.Assign{Op: op, LHS: x, RHS: &ast.IntLit{Value: 1, TokPos: t.Pos}, TokPos: t.Pos}
		default:
			return x
		}
	}
}

func (p *Parser) parseArgs() []ast.Expr {
	p.expect(token.LPAREN)
	var args []ast.Expr
	if p.peek().Kind != token.RPAREN {
		for {
			args = append(args, p.parseExpr())
			if !p.accept(token.COMMA) {
				break
			}
		}
	}
	p.expect(token.RPAREN)
	return args
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.peek()
	switch t.Kind {
	case token.INTLIT:
		p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "bad integer literal %q", t.Lit)
		}
		return &ast.IntLit{Value: v, TokPos: t.Pos}
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
	case token.KWTRUE:
		p.next()
		return &ast.BoolLit{Value: true, TokPos: t.Pos}
	case token.KWFALSE:
		p.next()
		return &ast.BoolLit{Value: false, TokPos: t.Pos}
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
		if p.peek().Kind == token.LPAREN {
			p.next()
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
	case token.IDENT:
		p.next()
		if p.peek().Kind == token.LPAREN {
			call := &ast.CallExpr{Method: t.Lit, Site: -1, TokPos: t.Pos}
			call.Args = p.parseArgs()
			return call
		}
		return &ast.Ident{Name: t.Lit, TokPos: t.Pos}
	case token.LPAREN:
		// C-style pointer cast `(cl*)expr` or a parenthesized expression.
		if p.peekAt(1).Kind == token.IDENT && p.classNames[p.peekAt(1).Lit] &&
			p.peekAt(2).Kind == token.STAR && p.peekAt(3).Kind == token.RPAREN {
			p.next()
			nameTok := p.next()
			p.next() // *
			p.next() // )
			x := p.parseUnary()
			return &ast.CastExpr{ClassName: nameTok.Lit, X: x, Dynamic: false, TokPos: t.Pos}
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
