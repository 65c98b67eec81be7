// Package token defines the lexical tokens of the mini-C++ dialect
// accepted by the commutativity-analysis compiler (the subset described
// in §6.1 of Rinard & Diniz, PLDI 1996).
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds.
const (
	// Special.
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT     // walksub
	INTLIT    // 123
	FLOATLIT  // 1.5, 4.0e-3
	STRINGLIT // "hello" (only for print builtins)

	// Operators and delimiters.
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	ASSIGN   // =
	PLUSEQ   // +=
	MINUSEQ  // -=
	STAREQ   // *=
	SLASHEQ  // /=
	INC      // ++
	DEC      // --
	EQ       // ==
	NEQ      // !=
	LT       // <
	GT       // >
	LEQ      // <=
	GEQ      // >=
	AND      // &&
	OR       // ||
	NOT      // !
	AMP      // &
	ARROW    // ->
	DOT      // .
	COMMA    // ,
	SEMI     // ;
	COLON    // :
	SCOPE    // ::
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]

	// Keywords.
	KWCLASS   // class
	KWPUBLIC  // public
	KWPRIVATE // private
	KWCONST   // const
	KWINT     // int
	KWDOUBLE  // double
	KWBOOLEAN // boolean
	KWVOID    // void
	KWIF      // if
	KWELSE    // else
	KWFOR     // for
	KWWHILE   // while
	KWRETURN  // return
	KWNEW     // new
	KWTHIS    // this
	KWNULL    // NULL (also nullptr)
	KWTRUE    // TRUE / true
	KWFALSE   // FALSE / false
	KWCAST    // dynamic_cast
)

var kindNames = map[Kind]string{
	ILLEGAL:   "ILLEGAL",
	EOF:       "EOF",
	IDENT:     "identifier",
	INTLIT:    "integer literal",
	FLOATLIT:  "float literal",
	STRINGLIT: "string literal",
	PLUS:      "+",
	MINUS:     "-",
	STAR:      "*",
	SLASH:     "/",
	PERCENT:   "%",
	ASSIGN:    "=",
	PLUSEQ:    "+=",
	MINUSEQ:   "-=",
	STAREQ:    "*=",
	SLASHEQ:   "/=",
	INC:       "++",
	DEC:       "--",
	EQ:        "==",
	NEQ:       "!=",
	LT:        "<",
	GT:        ">",
	LEQ:       "<=",
	GEQ:       ">=",
	AND:       "&&",
	OR:        "||",
	NOT:       "!",
	AMP:       "&",
	ARROW:     "->",
	DOT:       ".",
	COMMA:     ",",
	SEMI:      ";",
	COLON:     ":",
	SCOPE:     "::",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	LBRACKET:  "[",
	RBRACKET:  "]",
	KWCLASS:   "class",
	KWPUBLIC:  "public",
	KWPRIVATE: "private",
	KWCONST:   "const",
	KWINT:     "int",
	KWDOUBLE:  "double",
	KWBOOLEAN: "boolean",
	KWVOID:    "void",
	KWIF:      "if",
	KWELSE:    "else",
	KWFOR:     "for",
	KWWHILE:   "while",
	KWRETURN:  "return",
	KWNEW:     "new",
	KWTHIS:    "this",
	KWNULL:    "NULL",
	KWTRUE:    "TRUE",
	KWFALSE:   "FALSE",
	KWCAST:    "dynamic_cast",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Lookup returns the keyword kind spelled lit, or IDENT when lit is no
// keyword. "float" is read as double, "bool" as boolean, "nullptr" as
// NULL, and true and false in either case.
func Lookup(lit string) Kind {
	switch lit {
	case "class":
		return KWCLASS
	case "public":
		return KWPUBLIC
	case "private":
		return KWPRIVATE
	case "const":
		return KWCONST
	case "int":
		return KWINT
	case "double", "float":
		return KWDOUBLE
	case "boolean", "bool":
		return KWBOOLEAN
	case "void":
		return KWVOID
	case "if":
		return KWIF
	case "else":
		return KWELSE
	case "for":
		return KWFOR
	case "while":
		return KWWHILE
	case "return":
		return KWRETURN
	case "new":
		return KWNEW
	case "this":
		return KWTHIS
	case "NULL", "nullptr":
		return KWNULL
	case "TRUE", "true":
		return KWTRUE
	case "FALSE", "false":
		return KWFALSE
	case "dynamic_cast":
		return KWCAST
	}
	return IDENT
}

// Pos is a position in a source file.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token with its source position.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT and literals
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, STRINGLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}

// Precedence returns the binary operator precedence for the kind, or 0
// if the kind is not a binary operator. Higher binds tighter.
func (k Kind) Precedence() int {
	switch k {
	case OR:
		return 1
	case AND:
		return 2
	case EQ, NEQ:
		return 3
	case LT, GT, LEQ, GEQ:
		return 4
	case PLUS, MINUS:
		return 5
	case STAR, SLASH, PERCENT:
		return 6
	}
	return 0
}

// IsAssign reports whether the kind is an assignment operator
// (=, +=, -=, *=, /=).
func (k Kind) IsAssign() bool {
	switch k {
	case ASSIGN, PLUSEQ, MINUSEQ, STAREQ, SLASHEQ:
		return true
	}
	return false
}
