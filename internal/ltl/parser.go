package ltl

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// parse parses the `ltl:` syntax. Grammar:
//
//	top     := '[]' implies | '<>' implies | implies
//	implies := or ('->' implies)? | or ('=>' implies)?     (right assoc)
//	or      := and (('\/' | '||' | 'or') and)*
//	and     := since (('/\' | '&&' | 'and') since)*
//	since   := unary ('S' unary)*                          (left assoc)
//	unary   := ('!'|'not') unary | '(*)' unary | '(~)' unary
//	         | '<*>' unary | '[*]' unary | '(' implies ')'
//	         | 'true' | 'false' | event
func parse(src string, alphabet []string) (*Formula, error) {
	syms := map[string]int{}
	for i, e := range alphabet {
		syms[e] = i
	}
	p := &ltlParser{toks: lexLTL(src), syms: syms, f: &Formula{alphabet: alphabet, src: src}}

	switch p.peek() {
	case "[]":
		p.next()
		p.f.wrap = wrapAlways
	case "<>":
		p.next()
		p.f.wrap = wrapEventually
	}
	root, err := p.implies()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, fmt.Errorf("ltl: unexpected %q at end of formula", p.toks[p.pos])
	}
	p.f.root = root
	return p.f, nil
}

type ltlParser struct {
	toks []string
	pos  int
	syms map[string]int
	f    *Formula
}

var ltlOps = []string{"[]", "<>", "(*)", "(~)", "<*>", "[*]", "->", "=>", "/\\", "\\/", "&&", "||", "(", ")", "!"}

func lexLTL(s string) []string {
	var toks []string
	i := 0
outer:
	for i < len(s) {
		c, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(c) {
			i += size
			continue
		}
		for _, op := range ltlOps {
			if strings.HasPrefix(s[i:], op) {
				toks = append(toks, op)
				i += len(op)
				continue outer
			}
		}
		j := i
		for j < len(s) {
			r, n := utf8.DecodeRuneInString(s[j:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
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
	return toks
}

func (p *ltlParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *ltlParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *ltlParser) add(n node) int {
	p.f.nodes = append(p.f.nodes, n)
	return len(p.f.nodes) - 1
}

func (p *ltlParser) implies() (int, error) {
	l, err := p.or()
	if err != nil {
		return 0, err
	}
	if t := p.peek(); t == "->" || t == "=>" {
		p.next()
		r, err := p.implies()
		if err != nil {
			return 0, err
		}
		return p.add(node{kind: opImplies, l: l, r: r}), nil
	}
	return l, nil
}

func (p *ltlParser) or() (int, error) {
	l, err := p.and()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t != "\\/" && t != "||" && t != "or" {
			return l, nil
		}
		p.next()
		r, err := p.and()
		if err != nil {
			return 0, err
		}
		l = p.add(node{kind: opOr, l: l, r: r})
	}
}

func (p *ltlParser) and() (int, error) {
	l, err := p.since()
	if err != nil {
		return 0, err
	}
	for {
		t := p.peek()
		if t != "/\\" && t != "&&" && t != "and" {
			return l, nil
		}
		p.next()
		r, err := p.since()
		if err != nil {
			return 0, err
		}
		l = p.add(node{kind: opAnd, l: l, r: r})
	}
}

func (p *ltlParser) since() (int, error) {
	l, err := p.unary()
	if err != nil {
		return 0, err
	}
	for p.peek() == "S" {
		p.next()
		r, err := p.unary()
		if err != nil {
			return 0, err
		}
		l = p.add(node{kind: opSince, l: l, r: r})
	}
	return l, nil
}

func (p *ltlParser) unary() (int, error) {
	switch t := p.next(); t {
	case "":
		return 0, fmt.Errorf("ltl: unexpected end of formula")
	case "!", "not":
		x, err := p.unary()
		if err != nil {
			return 0, err
		}
		return p.add(node{kind: opNot, l: x, r: -1}), nil
	case "(*)":
		x, err := p.unary()
		if err != nil {
			return 0, err
		}
		return p.add(node{kind: opPrev, l: x, r: -1}), nil
	case "(~)":
		x, err := p.unary()
		if err != nil {
			return 0, err
		}
		return p.add(node{kind: opWeakPrev, l: x, r: -1}), nil
	case "<*>":
		x, err := p.unary()
		if err != nil {
			return 0, err
		}
		return p.add(node{kind: opOnce, l: x, r: -1}), nil
	case "[*]":
		x, err := p.unary()
		if err != nil {
			return 0, err
		}
		return p.add(node{kind: opHist, l: x, r: -1}), nil
	case "(":
		x, err := p.implies()
		if err != nil {
			return 0, err
		}
		if p.next() != ")" {
			return 0, fmt.Errorf("ltl: missing ')'")
		}
		return x, nil
	case "true":
		return p.add(node{kind: opTrue, l: -1, r: -1}), nil
	case "false":
		return p.add(node{kind: opFalse, l: -1, r: -1}), nil
	default:
		a, ok := p.syms[t]
		if !ok {
			return 0, fmt.Errorf("ltl: unknown event %q", t)
		}
		return p.add(node{kind: opAtom, sym: a, l: -1, r: -1}), nil
	}
}
