package rel

import (
	"fmt"
	"strings"
)

// tokKind enumerates SQL token kinds.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct // single/compound punctuation: , ( ) . * = <> != < <= > >= + - /
	tokKeyword
)

type token struct {
	kind tokKind
	text string // keywords upper-cased, identifiers as written
	pos  int
}

var sqlKeywords = map[string]bool{
	"WITH": true, "AS": true, "SELECT": true, "DISTINCT": true, "FROM": true,
	"WHERE": true, "LEFT": true, "OUTER": true, "INNER": true, "JOIN": true,
	"ON": true, "UNION": true, "ALL": true, "ORDER": true, "BY": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true, "AND": true,
	"OR": true, "NOT": true, "NULL": true, "IS": true, "IN": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"TRUE": true, "FALSE": true, "EXISTS": true,
}

type lexer struct {
	in   string
	pos  int
	toks []token
}

func lexSQL(in string) ([]token, error) {
	l := &lexer{in: in}
	for {
		l.skipSpace()
		if l.pos >= len(l.in) {
			l.emit(token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		c := l.in[l.pos]
		switch {
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.in) && isIdentPart(l.in[l.pos]) {
				l.pos++
			}
			word := l.in[start:l.pos]
			up := strings.ToUpper(word)
			if sqlKeywords[up] {
				l.emit(token{kind: tokKeyword, text: up, pos: start})
			} else {
				l.emit(token{kind: tokIdent, text: word, pos: start})
			}
		case isDigit(c):
			start := l.pos
			for l.pos < len(l.in) && (isDigit(l.in[l.pos]) || l.in[l.pos] == '.') {
				l.pos++
			}
			l.exponent()
			l.emit(token{kind: tokNumber, text: l.in[start:l.pos], pos: start})
		case c == '\'':
			start := l.pos
			l.pos++
			var b strings.Builder
			for {
				if l.pos >= len(l.in) {
					return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
				}
				ch := l.in[l.pos]
				if ch == '\'' {
					// '' is an escaped quote.
					if l.pos+1 < len(l.in) && l.in[l.pos+1] == '\'' {
						b.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(ch)
				l.pos++
			}
			l.emit(token{kind: tokString, text: b.String(), pos: start})
		default:
			start := l.pos
			switch c {
			case ',', '(', ')', '.', '*', '+', '-', '/', '=':
				l.pos++
				l.emit(token{kind: tokPunct, text: string(c), pos: start})
			case '<':
				l.pos++
				if l.pos < len(l.in) && (l.in[l.pos] == '=' || l.in[l.pos] == '>') {
					l.pos++
				}
				l.emit(token{kind: tokPunct, text: l.in[start:l.pos], pos: start})
			case '>':
				l.pos++
				if l.pos < len(l.in) && l.in[l.pos] == '=' {
					l.pos++
				}
				l.emit(token{kind: tokPunct, text: l.in[start:l.pos], pos: start})
			case '!':
				l.pos++
				if l.pos >= len(l.in) || l.in[l.pos] != '=' {
					return nil, fmt.Errorf("sql: unexpected '!' at offset %d", start)
				}
				l.pos++
				l.emit(token{kind: tokPunct, text: "!=", pos: start})
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
			}
		}
	}
}

func (l *lexer) emit(t token) { l.toks = append(l.toks, t) }

// exponent consumes the exponent of a number, e[+-]digits, if one
// follows; an e not followed by digits is left for the next token.
func (l *lexer) exponent() {
	i := l.pos
	if i >= len(l.in) || l.in[i] != 'e' && l.in[i] != 'E' {
		return
	}
	i++
	if i < len(l.in) && (l.in[i] == '+' || l.in[i] == '-') {
		i++
	}
	if i >= len(l.in) || !isDigit(l.in[i]) {
		return
	}
	for i < len(l.in) && isDigit(l.in[i]) {
		i++
	}
	l.pos = i
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.in) && l.in[l.pos+1] == '-' {
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
