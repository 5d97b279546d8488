package ere

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse parses the `ere:` pattern syntax of Figure 3 over the given event
// alphabet. Grammar (lowest to highest precedence):
//
//	alt    := and ('|' and)*
//	and    := cat ('&' cat)*
//	cat    := unary+
//	unary  := atom ('*' | '+' | '?')*
//	atom   := '~' atom | '(' alt ')' | 'epsilon' | 'empty' | event
//
// Event names must be members of alphabet.
func Parse(pattern string, alphabet []string) (Expr, error) {
	syms := map[string]int{}
	for i, e := range alphabet {
		syms[e] = i
	}
	p := &parser{toks: lex(pattern), syms: syms}
	e, err := p.alt()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, fmt.Errorf("ere: unexpected %q at end of pattern", p.toks[p.pos])
	}
	return e, nil
}

type parser struct {
	toks []string
	pos  int
	syms map[string]int
}

func lex(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsSpace(c):
			i += size
		case strings.ContainsRune("()|&*+?~", c):
			toks = append(toks, string(c))
			i++
		default:
			j := i
			for j < len(s) {
				r, n := utf8.DecodeRuneInString(s[j:])
				if !isIdent(r) {
					break
				}
				j += n
			}
			if j == i {
				toks = append(toks, s[i:i+size])
				i += size
			} else {
				toks = append(toks, s[i:j])
				i = j
			}
		}
	}
	return toks
}

func isIdent(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_'
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) alt() (Expr, error) {
	e, err := p.and()
	if err != nil {
		return nil, err
	}
	for p.peek() == "|" {
		p.next()
		r, err := p.and()
		if err != nil {
			return nil, err
		}
		e = Alt(e, r)
	}
	return e, nil
}

func (p *parser) and() (Expr, error) {
	e, err := p.cat()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&" {
		p.next()
		r, err := p.cat()
		if err != nil {
			return nil, err
		}
		e = And(e, r)
	}
	return e, nil
}

func (p *parser) cat() (Expr, error) {
	e, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t == "" || t == ")" || t == "|" || t == "&" {
			return e, nil
		}
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		e = Cat(e, r)
	}
}

func (p *parser) unary() (Expr, error) {
	e, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case "*":
			p.next()
			e = Star(e)
		case "+":
			p.next()
			e = Plus(e)
		case "?":
			p.next()
			e = Opt(e)
		default:
			return e, nil
		}
	}
}

func (p *parser) atom() (Expr, error) {
	switch t := p.next(); t {
	case "":
		return nil, fmt.Errorf("ere: unexpected end of pattern")
	case "~":
		e, err := p.atom()
		if err != nil {
			return nil, err
		}
		return Not(e), nil
	case "(":
		e, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("ere: missing ')'")
		}
		return e, nil
	case "epsilon":
		return Eps, nil
	case "empty":
		return Empty, nil
	case ")", "|", "&", "*", "+", "?":
		return nil, fmt.Errorf("ere: unexpected %q", t)
	default:
		a, ok := p.syms[t]
		if !ok {
			return nil, fmt.Errorf("ere: unknown event %q", t)
		}
		return Sym(a), nil
	}
}
