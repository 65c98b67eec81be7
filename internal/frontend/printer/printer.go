// Package printer renders mini-C++ ASTs back to source text. The
// code generator uses it to emit the transformed parallel program (the
// paper's source-to-source output, §6.1), and the tests use it for
// parse→print→parse round trips.
//
// Everything is written into one buffer, the caller's where it has one
// (the Write* entry points), so a nested construct costs no
// intermediate string.
package printer

import (
	"bytes"
	"strconv"

	"commute/internal/frontend/ast"
)

// File renders a complete source file.
func File(f *ast.File) string {
	var sb bytes.Buffer
	sb.Grow(f.Size)
	p := &printer{sb: &sb}
	for i, d := range f.Decls {
		if i > 0 {
			p.nl()
		}
		p.decl(d)
	}
	return sb.String()
}

// Expr renders an expression.
func Expr(e ast.Expr) string {
	var sb bytes.Buffer
	WriteExpr(&sb, e)
	return sb.String()
}

// WriteDecl appends a top-level declaration as File renders it.
func WriteDecl(sb *bytes.Buffer, d ast.Decl) { (&printer{sb: sb}).decl(d) }

// WriteMembers appends the members of a class (fields, prototypes and
// inline methods) as File renders them between the class frame's lines.
func WriteMembers(sb *bytes.Buffer, cd *ast.ClassDecl) {
	(&printer{sb: sb, indent: 1}).members(cd)
}

// WriteParams appends a parameter list, without its parentheses.
func WriteParams(sb *bytes.Buffer, ps []*ast.Param) { (&printer{sb: sb}).params(ps) }

// WriteStmt appends a statement at the given indent level.
func WriteStmt(sb *bytes.Buffer, s ast.Stmt, indent int) {
	(&printer{sb: sb, indent: indent}).stmt(s)
}

// WriteForHeader appends the "init; cond; post" of a for statement.
func WriteForHeader(sb *bytes.Buffer, x *ast.ForStmt) { (&printer{sb: sb}).forHeader(x) }

// WriteExpr appends an expression.
func WriteExpr(sb *bytes.Buffer, e ast.Expr) { (&printer{sb: sb}).expr(e, 0) }

// WriteCall appends a call whose method name carries suffix.
func WriteCall(sb *bytes.Buffer, x *ast.CallExpr, suffix string) {
	(&printer{sb: sb}).call(x, suffix)
}

type printer struct {
	sb     *bytes.Buffer
	indent int
}

func (p *printer) w(parts ...string) {
	for _, s := range parts {
		p.sb.WriteString(s)
	}
}
func (p *printer) nl() { p.sb.WriteByte('\n') }

// pad indents, then writes the parts.
func (p *printer) pad(parts ...string) {
	for i := 0; i < p.indent; i++ {
		p.w("  ")
	}
	p.w(parts...)
}

// line writes the parts as one indented line.
func (p *printer) line(parts ...string) {
	p.pad(parts...)
	p.nl()
}

// ---------------------------------------------------------------------
// Declarations

func (p *printer) decl(d ast.Decl) {
	switch x := d.(type) {
	case *ast.ConstDecl:
		p.pad("const ")
		p.typeBase(x.Type)
		p.w(" ", x.Name, " = ")
		p.expr(x.Value, 0)
		p.w(";\n")
	case *ast.GlobalVar:
		p.pad()
		p.typeBase(x.Type)
		p.w(" ", x.Name, ";\n")
	case *ast.ClassDecl:
		p.classDecl(x)
	case *ast.MethodDef:
		p.methodDef(x)
	}
}

func (p *printer) classDecl(cd *ast.ClassDecl) {
	if cd.Base != "" {
		p.line("class ", cd.Name, " : public ", cd.Base, " {")
	} else {
		p.line("class ", cd.Name, " {")
	}
	p.line("public:")
	p.indent++
	p.members(cd)
	p.indent--
	p.line("};")
}

func (p *printer) members(cd *ast.ClassDecl) {
	for _, fd := range cd.Fields {
		p.pad()
		p.declarator(fd.Type, fd.Name)
		p.w(";\n")
	}
	for _, proto := range cd.Protos {
		p.pad()
		p.signature(proto.RetType, "", proto.Name, proto.Params)
		p.w(";\n")
	}
	for _, md := range cd.Inline {
		p.pad()
		p.signature(md.RetType, "", md.Name, md.Params)
		p.w(" ")
		p.block(md.Body)
		p.nl()
	}
}

func (p *printer) methodDef(md *ast.MethodDef) {
	p.pad()
	p.signature(md.RetType, md.ClassName, md.Name, md.Params)
	p.w(" ")
	p.block(md.Body)
	p.nl()
}

// signature writes "ret class::name(params)", or "ret name(params)"
// when className is empty.
func (p *printer) signature(ret *ast.TypeExpr, className, name string, ps []*ast.Param) {
	p.typeBase(ret)
	p.w(" ")
	if className != "" {
		p.w(className, "::")
	}
	p.w(name, "(")
	p.params(ps)
	p.w(")")
}

func (p *printer) params(ps []*ast.Param) {
	for i, prm := range ps {
		if i > 0 {
			p.w(", ")
		}
		p.declarator(prm.Type, prm.Name)
	}
}

// typeBase writes the non-declarator part of a type.
func (p *printer) typeBase(te *ast.TypeExpr) {
	switch te.Kind {
	case ast.TInt:
		p.w("int")
	case ast.TDouble:
		p.w("double")
	case ast.TBool:
		p.w("boolean")
	case ast.TVoid:
		p.w("void")
	case ast.TClass:
		p.w(te.ClassName)
	}
	if te.Ptr {
		p.w(" *")
	}
}

// declarator writes "type name[dims]".
func (p *printer) declarator(te *ast.TypeExpr, name string) {
	p.typeBase(te)
	if !te.Ptr {
		p.w(" ")
	}
	p.w(name)
	for _, dim := range te.ArrayDims {
		p.w("[")
		if dim != nil {
			p.expr(dim, 0)
		}
		p.w("]")
	}
}

// ---------------------------------------------------------------------
// Statements

func (p *printer) block(b *ast.Block) {
	p.w("{\n")
	p.indent++
	for _, s := range b.Stmts {
		p.stmt(s)
	}
	p.indent--
	p.pad("}")
}

func (p *printer) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.Block:
		p.pad()
		p.block(x)
		p.nl()
	case *ast.DeclStmt, *ast.ExprStmt:
		p.pad()
		p.simple(x)
		p.w(";\n")
	case *ast.IfStmt:
		p.pad("if (")
		p.expr(x.Cond, 0)
		p.w(") ")
		p.inlineStmt(x.Then)
		if x.Else != nil {
			p.w(" else ")
			p.inlineStmt(x.Else)
		}
		p.nl()
	case *ast.ForStmt:
		p.pad("for (")
		p.forHeader(x)
		p.w(") ")
		p.inlineStmt(x.Body)
		p.nl()
	case *ast.WhileStmt:
		p.pad("while (")
		p.expr(x.Cond, 0)
		p.w(") ")
		p.inlineStmt(x.Body)
		p.nl()
	case *ast.ReturnStmt:
		p.pad("return")
		if x.X != nil {
			p.w(" ")
			p.expr(x.X, 0)
		}
		p.w(";\n")
	}
}

// simple writes a declaration or expression statement without its
// indentation and semicolon: a statement line, or a for header's part.
func (p *printer) simple(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.DeclStmt:
		p.declarator(x.Type, x.Name)
		if x.Init != nil {
			p.w(" = ")
			p.expr(x.Init, 0)
		}
	case *ast.ExprStmt:
		p.expr(x.X, 0)
	}
}

func (p *printer) forHeader(x *ast.ForStmt) {
	if x.Init != nil {
		p.simple(x.Init)
	}
	p.w("; ")
	if x.Cond != nil {
		p.expr(x.Cond, 0)
	}
	p.w("; ")
	if x.Post != nil {
		p.simple(x.Post)
	}
}

// inlineStmt renders a statement as the body of if/for/while without a
// trailing newline. A single-statement body goes on its own line, which
// it ends; the caller adds another. The empty statement (a nil body) is
// its semicolon.
func (p *printer) inlineStmt(s ast.Stmt) {
	if s == nil {
		p.w(";")
		return
	}
	if b, ok := s.(*ast.Block); ok {
		p.block(b)
		return
	}
	p.nl()
	p.indent++
	p.stmt(s)
	p.indent--
}

// ---------------------------------------------------------------------
// Expressions

// expr renders with minimal parentheses using precedence climbing.
func (p *printer) expr(e ast.Expr, minPrec int) {
	switch x := e.(type) {
	case *ast.IntLit:
		var buf [20]byte
		p.sb.Write(strconv.AppendInt(buf[:0], x.Value, 10))
	case *ast.FloatLit:
		var buf [32]byte
		s := strconv.AppendFloat(buf[:0], x.Value, 'g', -1, 64)
		p.sb.Write(s)
		if !bytes.ContainsAny(s, ".eE") {
			p.w(".0")
		}
	case *ast.BoolLit:
		if x.Value {
			p.w("TRUE")
		} else {
			p.w("FALSE")
		}
	case *ast.NullLit:
		p.w("NULL")
	case *ast.StringLit:
		p.w(strconv.Quote(x.Value))
	case *ast.ThisExpr:
		p.w("this")
	case *ast.Ident:
		p.w(x.Name)
	case *ast.FieldAccess:
		p.postfixBase(x.X)
		p.w(selector(x.Arrow), x.Name)
	case *ast.IndexExpr:
		p.postfixBase(x.X)
		p.w("[")
		p.expr(x.Index, 0)
		p.w("]")
	case *ast.CallExpr:
		p.call(x, "")
	case *ast.NewExpr:
		p.w("new ", x.ClassName)
	case *ast.CastExpr:
		if x.Dynamic {
			p.w("dynamic_cast<", x.ClassName, "*>(")
			p.expr(x.X, 0)
			p.w(")")
		} else {
			p.w("(", x.ClassName, "*)")
			p.expr(x.X, 8)
		}
	case *ast.Unary:
		p.w(x.Op.String())
		p.expr(x.X, 7)
	case *ast.Binary:
		prec := x.Op.Precedence()
		if prec < minPrec {
			p.w("(")
		}
		p.expr(x.X, prec)
		p.w(" ", x.Op.String(), " ")
		p.expr(x.Y, prec+1)
		if prec < minPrec {
			p.w(")")
		}
	case *ast.Assign:
		if minPrec > 0 {
			p.w("(")
		}
		p.expr(x.LHS, 1)
		p.w(" ", x.Op.String(), " ")
		p.expr(x.RHS, 0)
		if minPrec > 0 {
			p.w(")")
		}
	}
}

// postfixBase renders the base of a postfix chain, parenthesizing
// non-primary expressions.
func (p *printer) postfixBase(e ast.Expr) {
	switch e.(type) {
	case *ast.Binary, *ast.Unary, *ast.Assign, *ast.CastExpr:
		p.w("(")
		p.expr(e, 0)
		p.w(")")
	default:
		p.expr(e, 8)
	}
}

// call writes a call with suffix appended to the method's name.
func (p *printer) call(x *ast.CallExpr, suffix string) {
	if x.Recv != nil {
		p.postfixBase(x.Recv)
		p.w(selector(x.Arrow))
	}
	p.w(x.Method, suffix, "(")
	for i, a := range x.Args {
		if i > 0 {
			p.w(", ")
		}
		p.expr(a, 0)
	}
	p.w(")")
}

func selector(arrow bool) string {
	if arrow {
		return "->"
	}
	return "."
}
