// Package lexer implements a hand-written scanner for the mini-C++
// dialect. It produces the token stream consumed by the parser.
package lexer

import (
	"fmt"
	"strings"

	"commute/internal/frontend/token"
)

// Lexer scans an input buffer into tokens.
type Lexer struct {
	src    string
	off    int // current byte offset
	line   int
	col    int
	errors []error
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns the scan errors encountered so far.
func (l *Lexer) Errors() []error { return l.errors }

// Truncate drops every scan error after the first n: a parser that
// stops early takes back the errors of a token it scanned but never
// looked at.
func (l *Lexer) Truncate(n int) { l.errors = l.errors[:n] }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errors = append(l.errors, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(n int) byte {
	if l.off+n >= len(l.src) {
		return 0
	}
	return l.src[l.off+n]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

// Byte classes: identBit marks the bytes an identifier continues with,
// digitBit the decimal digits among them, spaceBit the blanks within a
// line.
const (
	identBit = 1 << iota
	digitBit
	spaceBit
)

var class = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c >= '0' && c <= '9':
			t[c] = identBit | digitBit
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			t[c] = identBit
		case c == ' ' || c == '\t' || c == '\r':
			t[c] = spaceBit
		}
	}
	return t
}()

func isDigit(c byte) bool { return class[c]&digitBit != 0 }
func isAlpha(c byte) bool { return class[c] == identBit }

// run returns the offset of the first byte at or after off outside the
// class bits.
func (l *Lexer) run(off int, bits uint8) int {
	for off < len(l.src) && class[l.src[off]]&bits != 0 {
		off++
	}
	return off
}

// skipSpace consumes whitespace, //-comments, /*-comments, and
// #-preprocessor lines (which the dialect ignores).
func (l *Lexer) skipSpace() {
	for l.off < len(l.src) {
		c := l.src[l.off]
		switch {
		case class[c] == spaceBit:
			end := l.run(l.off+1, spaceBit)
			l.col += end - l.off
			l.off = end
		case c == '\n':
			l.off++
			l.line++
			l.col = 1
		case c == '#' || c == '/' && l.peekAt(1) == '/':
			l.skipLine()
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// skipLine consumes the rest of the line, up to its newline.
func (l *Lexer) skipLine() {
	end := l.off
	for end < len(l.src) && l.src[end] != '\n' {
		end++
	}
	l.col += end - l.off
	l.off = end
}

// Next returns the next token in the stream. At end of input it returns
// an EOF token indefinitely.
func (l *Lexer) Next() token.Token {
	kind, lit, pos := l.Scan()
	return token.Token{Kind: kind, Lit: lit, Pos: pos}
}

// Scan is Next as the token's three fields, which a caller stores
// straight from the result registers: a Token result goes through a
// spilled copy.
func (l *Lexer) Scan() (kind token.Kind, lit string, pos token.Pos) {
	l.skipSpace()
	pos = l.pos()
	if l.off >= len(l.src) {
		return token.EOF, "", pos
	}
	c := l.src[l.off]
	switch {
	case isAlpha(c):
		lit = l.scanIdent()
		return token.Lookup(lit), lit, pos
	case isDigit(c):
		kind, lit = l.scanNumber(pos)
		return kind, lit, pos
	case c == '"':
		kind, lit = l.scanString(pos)
		return kind, lit, pos
	}
	// c is punctuation or illegal, never a newline.
	l.off++
	l.col++
	if k := pair(c, l.peek()); k != token.ILLEGAL {
		l.off++
		l.col++
		return k, "", pos
	}
	if k := single[c]; k != token.ILLEGAL {
		return k, "", pos
	}
	if c == '|' {
		l.errorf(pos, "unexpected character %q (bitwise-or is not in the dialect)", c)
	} else {
		l.errorf(pos, "unexpected character %q", c)
	}
	return token.ILLEGAL, string(c), pos
}

// single maps each one-character operator and delimiter to its kind,
// every other byte to ILLEGAL.
var single = [256]token.Kind{
	'+': token.PLUS, '-': token.MINUS, '*': token.STAR, '/': token.SLASH,
	'%': token.PERCENT, '=': token.ASSIGN, '!': token.NOT, '<': token.LT,
	'>': token.GT, '&': token.AMP, '.': token.DOT, ',': token.COMMA,
	';': token.SEMI, ':': token.COLON, '(': token.LPAREN, ')': token.RPAREN,
	'{': token.LBRACE, '}': token.RBRACE, '[': token.LBRACKET, ']': token.RBRACKET,
}

// pair is the kind of the two-character operator c d, or ILLEGAL.
func pair(c, d byte) token.Kind {
	switch uint16(c)<<8 | uint16(d) {
	case '+'<<8 | '+':
		return token.INC
	case '+'<<8 | '=':
		return token.PLUSEQ
	case '-'<<8 | '-':
		return token.DEC
	case '-'<<8 | '>':
		return token.ARROW
	case '-'<<8 | '=':
		return token.MINUSEQ
	case '*'<<8 | '=':
		return token.STAREQ
	case '/'<<8 | '=':
		return token.SLASHEQ
	case '='<<8 | '=':
		return token.EQ
	case '!'<<8 | '=':
		return token.NEQ
	case '<'<<8 | '=':
		return token.LEQ
	case '>'<<8 | '=':
		return token.GEQ
	case '&'<<8 | '&':
		return token.AND
	case '|'<<8 | '|':
		return token.OR
	case ':'<<8 | ':':
		return token.SCOPE
	}
	return token.ILLEGAL
}

func (l *Lexer) scanIdent() string {
	start := l.off
	l.off = l.run(start+1, identBit)
	l.col += l.off - start
	return l.src[start:l.off]
}

// skipDigits consumes a run of decimal digits.
func (l *Lexer) skipDigits() {
	end := l.run(l.off, digitBit)
	l.col += end - l.off
	l.off = end
}

func (l *Lexer) scanNumber(pos token.Pos) (token.Kind, string) {
	start := l.off
	kind := token.INTLIT
	l.skipDigits()
	if l.peek() == '.' && isDigit(l.peekAt(1)) {
		kind = token.FLOATLIT
		l.advance()
		l.skipDigits()
	} else if l.peek() == '.' && !isAlpha(l.peekAt(1)) {
		// trailing-dot float like "4."
		kind = token.FLOATLIT
		l.advance()
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		save, saveCol := l.off, l.col
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		if isDigit(l.peek()) {
			kind = token.FLOATLIT
			l.skipDigits()
		} else {
			// Not an exponent: report it, and scan the 'e' and any sign
			// again as the tokens they are. Neither is a newline, so
			// only the column moves back.
			l.errorf(pos, "malformed exponent in numeric literal")
			l.off, l.col = save, saveCol
		}
	}
	return kind, l.src[start:l.off]
}

func (l *Lexer) scanString(pos token.Pos) (token.Kind, string) {
	l.advance() // opening quote
	var sb strings.Builder
	for l.off < len(l.src) {
		c := l.advance()
		if c == '"' {
			return token.STRINGLIT, sb.String()
		}
		if c == '\\' && l.off < len(l.src) {
			e := l.advance()
			switch e {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"':
				sb.WriteByte('"')
			case '\\':
				sb.WriteByte('\\')
			default:
				sb.WriteByte(e)
			}
			continue
		}
		if c == '\n' {
			break
		}
		sb.WriteByte(c)
	}
	l.errorf(pos, "unterminated string literal")
	return token.ILLEGAL, sb.String()
}

// All scans the entire input and returns the token slice, ending with
// EOF. Convenient for tests.
func (l *Lexer) All() []token.Token {
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks
		}
	}
}
