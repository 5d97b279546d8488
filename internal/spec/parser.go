package spec

import (
	"fmt"
	"strings"
)

// Property is a parsed (not yet compiled) specification.
type Property struct {
	Name   string
	Params []Param
	Events []EventDecl
	Logics []LogicBlock
}

// Param is a declared parameter, e.g. "Iterator i" (the type is optional
// and informational).
type Param struct {
	Type string
	Name string
}

// EventDecl declares a parametric event and the parameters it binds.
type EventDecl struct {
	Name   string
	Params []string
	Line   int
}

// LogicBlock is one property body in a given formalism, with its handlers.
type LogicBlock struct {
	Kind     string // "fsm", "ere", "ltl", "cfg"
	Body     string // raw pattern text (ere/ltl/cfg)
	FSM      []FSMState
	Handlers []Handler
}

// FSMState is one state of an fsm block.
type FSMState struct {
	Name  string
	Trans []FSMTrans
}

// FSMTrans is one transition "event -> state".
type FSMTrans struct {
	Event string
	To    string
}

// Handler attaches code to a verdict category, e.g. "@match { ... }".
type Handler struct {
	Category string
	Body     string
}

// Parse parses a .rv property source.
func Parse(src string) (*Property, error) {
	lx := newLexer(src)
	p := &Property{}

	tok, err := lx.next()
	if err != nil {
		return nil, err
	}
	if tok.kind != tokIdent {
		return nil, lx.errf("expected property name, got %q", tok.text)
	}
	p.Name = tok.text
	if err := expect(lx, "("); err != nil {
		return nil, err
	}
	if err := p.parseParams(lx); err != nil {
		return nil, err
	}
	if err := expect(lx, "{"); err != nil {
		return nil, err
	}

	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		switch {
		case tok.kind == tokPunct && tok.text == "}":
			if err := p.check(); err != nil {
				return nil, err
			}
			return p, nil
		case tok.kind == tokEOF:
			return nil, lx.errf("unexpected end of property %q", p.Name)
		case tok.kind == tokIdent && tok.text == "event":
			if err := p.parseEvent(lx); err != nil {
				return nil, err
			}
		case tok.kind == tokIdent && isLogicKeyword(tok.text):
			if err := expect(lx, ":"); err != nil {
				return nil, err
			}
			lb := LogicBlock{Kind: tok.text}
			if tok.text == "fsm" {
				states, err := parseFSMBody(lx)
				if err != nil {
					return nil, err
				}
				lb.FSM = states
			} else {
				lb.Body = lx.restOfLogicBlock()
				if lb.Body == "" {
					return nil, lx.errf("empty %s block", tok.text)
				}
			}
			p.Logics = append(p.Logics, lb)
		case tok.kind == tokPunct && tok.text == "@":
			cat, err := lx.next()
			if err != nil {
				return nil, err
			}
			if cat.kind != tokIdent {
				return nil, lx.errf("expected handler category after '@'")
			}
			body, err := lx.braceBlock()
			if err != nil {
				return nil, err
			}
			if len(p.Logics) == 0 {
				return nil, lx.errf("handler @%s before any logic block", cat.text)
			}
			last := &p.Logics[len(p.Logics)-1]
			last.Handlers = append(last.Handlers, Handler{Category: cat.text, Body: body})
		default:
			return nil, lx.errf("unexpected %q in property body", tok.text)
		}
	}
}

func (p *Property) parseParams(lx *lexer) error {
	for {
		tok, err := lx.next()
		if err != nil {
			return err
		}
		if tok.kind == tokPunct && tok.text == ")" {
			return nil
		}
		if tok.kind != tokIdent {
			return lx.errf("expected parameter declaration")
		}
		// Either "Type name" or bare "name".
		nxt, err := lx.peek()
		if err != nil {
			return err
		}
		prm := Param{Name: tok.text}
		if nxt.kind == tokIdent {
			if _, err := lx.next(); err != nil {
				return err
			}
			prm = Param{Type: tok.text, Name: nxt.text}
		}
		p.Params = append(p.Params, prm)
		sep, err := lx.next()
		if err != nil {
			return err
		}
		if sep.kind == tokPunct && sep.text == ")" {
			return nil
		}
		if sep.kind != tokPunct || sep.text != "," {
			return lx.errf("expected ',' or ')' in parameter list")
		}
	}
}

func (p *Property) parseEvent(lx *lexer) error {
	name, err := lx.next()
	if err != nil {
		return err
	}
	if name.kind != tokIdent {
		return lx.errf("expected event name")
	}
	if err := expect(lx, "("); err != nil {
		return err
	}
	ev := EventDecl{Name: name.text, Line: name.line}
	for {
		tok, err := lx.next()
		if err != nil {
			return err
		}
		if tok.kind == tokPunct && tok.text == ")" {
			break
		}
		if tok.kind == tokPunct && tok.text == "," {
			continue
		}
		if tok.kind != tokIdent {
			return lx.errf("expected parameter name in event %q", ev.Name)
		}
		ev.Params = append(ev.Params, tok.text)
	}
	p.Events = append(p.Events, ev)
	return nil
}

// parseFSMBody parses "state [ ev -> state ... ] ..." until a non-state
// token (handler '@', logic keyword, or '}') is reached.
func parseFSMBody(lx *lexer) ([]FSMState, error) {
	var states []FSMState
	for {
		save := *lx
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		if tok.kind != tokIdent || isLogicKeyword(tok.text) {
			*lx = save
			break
		}
		open, err := lx.next()
		if err != nil {
			return nil, err
		}
		if open.kind != tokPunct || open.text != "[" {
			*lx = save
			break
		}
		st := FSMState{Name: tok.text}
		for {
			t, err := lx.next()
			if err != nil {
				return nil, err
			}
			if t.kind == tokPunct && t.text == "]" {
				break
			}
			if t.kind != tokIdent {
				return nil, lx.errf("expected event name in state %q", st.Name)
			}
			if err := expect(lx, "->"); err != nil {
				return nil, err
			}
			to, err := lx.next()
			if err != nil {
				return nil, err
			}
			if to.kind != tokIdent {
				return nil, lx.errf("expected target state after '->'")
			}
			st.Trans = append(st.Trans, FSMTrans{Event: t.text, To: to.text})
		}
		states = append(states, st)
	}
	if len(states) == 0 {
		return nil, lx.errf("fsm block has no states")
	}
	return states, nil
}

func (p *Property) check() error {
	if p.Name == "" {
		return fmt.Errorf("spec: property has no name")
	}
	if len(p.Params) == 0 {
		return fmt.Errorf("spec: property %q declares no parameters", p.Name)
	}
	if len(p.Events) == 0 {
		return fmt.Errorf("spec: property %q declares no events", p.Name)
	}
	if len(p.Logics) == 0 {
		return fmt.Errorf("spec: property %q has no logic block", p.Name)
	}
	if errs := p.DeclErrors(); len(errs) > 0 {
		return fmt.Errorf("spec: %s", strings.Join(errs, "; "))
	}
	for _, lb := range p.Logics {
		if len(lb.Handlers) == 0 {
			return fmt.Errorf("spec: %s block of %q has no handlers (no verdict categories of interest)", lb.Kind, p.Name)
		}
	}
	return nil
}

func expect(lx *lexer, text string) error {
	tok, err := lx.next()
	if err != nil {
		return err
	}
	if tok.text != text {
		return lx.errf("expected %q, got %q", text, tok.text)
	}
	return nil
}
