// Package spec implements the RV specification language of Figures 2–4: a
// property declares parameters, events over those parameters, one or more
// logic blocks (fsm, ere, ltl, cfg), and handlers attached to verdict
// categories. AspectJ pointcuts are replaced by plain event declarations —
// programs are instrumented through the engine API instead of weaving (see
// DESIGN.md).
//
// Identifiers — property, parameter, type, event and state names — are
// Unicode: a letter or '_', then letters, digits and '_' (Prüfung, é).
// A comment runs from // to the end of its line, anywhere, inside an ere,
// ltl or cfg pattern too.
//
// The compiler here is the only code that assembles a monitor.Spec: the
// built-in library (internal/props, one .rv file per property) is compiled
// from source, and the public spec.Builder gathers its declarations into a
// Property and builds it through the same DeclErrors and Assemble.
//
// Example (HASNEXT, both formalisms, as in Figure 2):
//
//	HasNext(Iterator i) {
//	    event hasnexttrue(i)
//	    event hasnextfalse(i)
//	    event next(i)
//
//	    fsm:
//	    unknown [
//	        hasnexttrue -> more
//	        hasnextfalse -> none
//	        next -> error
//	    ]
//	    more [
//	        hasnexttrue -> more
//	        hasnextfalse -> none
//	        next -> unknown
//	    ]
//	    none [
//	        hasnextfalse -> none
//	        hasnexttrue -> more
//	        next -> error
//	    ]
//	    error [ ]
//	    @error { print "improper Iterator use found!" }
//
//	    ltl: [] (next -> (*) hasnexttrue)
//	    @violation { print "improper Iterator use found!" }
//	}
package spec

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokIdent tokKind = iota
	tokPunct         // ( ) { } [ ] , -> @
	tokBlock         // raw text of a logic block or handler body
	tokEOF
)

type token struct {
	kind tokKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("spec: line %d: %s", lx.line, fmt.Sprintf(format, args...))
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case unicode.IsSpace(c):
			lx.pos += size
		case strings.HasPrefix(lx.src[lx.pos:], "//"):
			lx.pos = commentEnd(lx.src, lx.pos)
		default:
			return
		}
	}
}

// commentEnd returns the end of the comment starting at s[i]: its line's
// newline, or the end of s.
func commentEnd(s string, i int) int {
	if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
		return i + j
	}
	return len(s)
}

// ident returns the end of the identifier starting at s[i], or i if none
// does.
func ident(s string, i int) int {
	j := i
	for j < len(s) {
		c, size := utf8.DecodeRuneInString(s[j:])
		if !isIdentPart(c) || j == i && !isIdentStart(c) {
			break
		}
		j += size
	}
	return j
}

// next returns the next structural token.
func (lx *lexer) next() (token, error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, line: lx.line}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', '{', '}', '[', ']', ',', '@', ':':
		lx.pos++
		return token{kind: tokPunct, text: string(c), line: lx.line}, nil
	}
	if strings.HasPrefix(lx.src[lx.pos:], "->") {
		lx.pos += 2
		return token{kind: tokPunct, text: "->", line: lx.line}, nil
	}
	if j := ident(lx.src, lx.pos); j > lx.pos {
		t := token{kind: tokIdent, text: lx.src[lx.pos:j], line: lx.line}
		lx.pos = j
		return t, nil
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return token{}, lx.errf("unexpected character %q", r)
}

// peek returns the next token without consuming it.
func (lx *lexer) peek() (token, error) {
	save := *lx
	t, err := lx.next()
	*lx = save
	return t, err
}

// restOfLogicBlock consumes raw text until the start of the next section:
// a line beginning with '@', a known logic keyword followed by ':', or the
// closing '}' of the property. Used for ere/ltl/cfg pattern bodies; the
// text is returned with its // comments removed.
func (lx *lexer) restOfLogicBlock() string {
	start := lx.pos
	depth := 0
	for lx.pos < len(lx.src) {
		lx.skipSpace()
		if lx.pos >= len(lx.src) {
			break
		}
		c := lx.src[lx.pos]
		if depth == 0 {
			if c == '@' || c == '}' {
				break
			}
			if j := ident(lx.src, lx.pos); j > lx.pos {
				if isLogicKeyword(lx.src[lx.pos:j]) && nextNonSpace(lx.src, j) == ':' {
					break
				}
				lx.pos = j
				continue
			}
		}
		switch c {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		}
		_, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		lx.pos += size
	}
	return strings.TrimSpace(stripComments(lx.src[start:lx.pos]))
}

// stripComments returns s without its // comments (their newlines kept).
func stripComments(s string) string {
	if !strings.Contains(s, "//") {
		return s
	}
	var b strings.Builder
	for {
		i := strings.Index(s, "//")
		if i < 0 {
			b.WriteString(s)
			return b.String()
		}
		b.WriteString(s[:i])
		s = s[commentEnd(s, i):]
	}
}

// braceBlock consumes a {...} block (handler body) and returns its inner
// text.
func (lx *lexer) braceBlock() (string, error) {
	lx.skipSpace()
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '{' {
		return "", lx.errf("expected '{'")
	}
	lx.pos++
	start := lx.pos
	depth := 1
	for lx.pos < len(lx.src) {
		switch lx.src[lx.pos] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				body := lx.src[start:lx.pos]
				lx.pos++
				return strings.TrimSpace(body), nil
			}
		case '\n':
			lx.line++
		}
		lx.pos++
	}
	return "", lx.errf("unterminated handler block")
}

func isIdentStart(c rune) bool { return unicode.IsLetter(c) || c == '_' }
func isIdentPart(c rune) bool  { return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' }

func isLogicKeyword(w string) bool {
	switch w {
	case "fsm", "ere", "ltl", "cfg":
		return true
	}
	return false
}

func nextNonSpace(s string, i int) rune {
	for i < len(s) {
		c, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(c) {
			return c
		}
		i += size
	}
	return 0
}
