package spec

import (
	"errors"
	"fmt"
	"strings"

	"rvgo/internal/cfg"
	"rvgo/internal/ere"
	"rvgo/internal/fsm"
	"rvgo/internal/logic"
	"rvgo/internal/ltl"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Compiled is one runnable monitor compiled from a logic block: Figure 2
// shows a single property carrying both an fsm and an ltl block, each with
// its own handlers, so compilation yields one Compiled per block.
type Compiled struct {
	Spec *monitor.Spec
	Kind string // formalism of the block
	// Handlers maps verdict categories to handler body text; the host
	// decides how to run them (rvmon interprets `print "..."`).
	Handlers map[logic.Category]string
}

// CompileOne parses and compiles .rv source that must define exactly one
// monitorable property, with the static analyses run. This is the shape
// the wire protocol's spec negotiation needs: the client and server both
// compile the same source through this helper, so the single-property
// rule and its diagnostics cannot drift between the two ends.
func CompileOne(src string) (*monitor.Spec, error) {
	p, err := Parse(src)
	if err != nil {
		return nil, err
	}
	compiled, err := p.Compile()
	if err != nil {
		return nil, err
	}
	if len(compiled) != 1 {
		return nil, fmt.Errorf("spec: source compiles to %d properties, want exactly 1", len(compiled))
	}
	return compiled[0].Spec, nil
}

// Compile compiles every logic block of the property; a block's handler
// categories are its goal.
func (p *Property) Compile() ([]*Compiled, error) {
	var out []*Compiled
	for bi, lb := range p.Logics {
		handlers := map[logic.Category]string{}
		var goal []logic.Category
		for _, h := range lb.Handlers {
			cat := logic.Category(h.Category)
			if _, dup := handlers[cat]; dup {
				return nil, fmt.Errorf("spec: %q has duplicate handler @%s", p.Name, h.Category)
			}
			handlers[cat] = h.Body
			goal = append(goal, cat)
		}
		name := p.Name
		if len(p.Logics) > 1 {
			name = fmt.Sprintf("%s#%s%d", p.Name, lb.Kind, bi)
		}
		s, err := p.Assemble(name, lb, goal)
		if err != nil {
			return nil, fmt.Errorf("spec: %q: %w", p.Name, err)
		}
		out = append(out, &Compiled{Spec: s, Kind: lb.Kind, Handlers: handlers})
	}
	return out, nil
}

// DeclErrors is the one declaration check, shared by the .rv parser and
// the public spec.Builder: every parameter declared once and at most
// param.MaxParams of them, every event declared once, and every parameter
// an event binds declared. It returns each problem found, in declaration
// order, or none.
func (p *Property) DeclErrors() []string {
	var errs []string
	declared := map[string]bool{}
	for _, prm := range p.Params {
		if declared[prm.Name] {
			errs = append(errs, fmt.Sprintf("property %q declares parameter %q twice", p.Name, prm.Name))
		}
		declared[prm.Name] = true
	}
	if len(p.Params) > param.MaxParams {
		errs = append(errs, fmt.Sprintf("property %q has %d parameters, max %d", p.Name, len(p.Params), param.MaxParams))
	}
	seen := map[string]bool{}
	for _, ev := range p.Events {
		if seen[ev.Name] {
			errs = append(errs, fmt.Sprintf("property %q declares event %q twice", p.Name, ev.Name))
		}
		seen[ev.Name] = true
		for _, prm := range ev.Params {
			if !declared[prm] {
				errs = append(errs, fmt.Sprintf("event %q binds undeclared parameter %q", ev.Name, prm))
			}
		}
	}
	return errs
}

// Assemble is the one place a monitor.Spec is put together, for .rv
// source and spec.Builder alike: the property's parameters and events,
// the blueprint of one logic block over the events in declaration order,
// and the goal categories, with the static analyses run. It refuses
// declarations that fail DeclErrors.
func (p *Property) Assemble(name string, lb LogicBlock, goal []logic.Category) (*monitor.Spec, error) {
	if errs := p.DeclErrors(); len(errs) > 0 {
		return nil, errors.New(strings.Join(errs, "; "))
	}
	s := &monitor.Spec{Name: name, Goal: goal}
	idx := make(map[string]int, len(p.Params))
	for i, prm := range p.Params {
		idx[prm.Name] = i
		s.Params = append(s.Params, prm.Name)
	}
	alphabet := make([]string, len(p.Events))
	for i, ev := range p.Events {
		var ps param.Set
		for _, prm := range ev.Params {
			ps = ps.Union(param.SetOf(idx[prm]))
		}
		s.Events = append(s.Events, monitor.EventDef{Name: ev.Name, Params: ps})
		alphabet[i] = ev.Name
	}
	bp, err := blueprint(lb, alphabet)
	if err != nil {
		return nil, fmt.Errorf("%s block: %w", lb.Kind, err)
	}
	s.BP = bp
	if err := s.Analyze(); err != nil {
		return nil, err
	}
	return s, nil
}

func blueprint(lb LogicBlock, alphabet []string) (logic.Blueprint, error) {
	switch lb.Kind {
	case "fsm":
		m := fsm.New(alphabet)
		for _, st := range lb.FSM {
			if err := m.AddState(st.Name); err != nil {
				return nil, err
			}
		}
		for _, st := range lb.FSM {
			for _, tr := range st.Trans {
				if err := m.AddTransition(st.Name, tr.Event, tr.To); err != nil {
					return nil, err
				}
			}
		}
		if err := m.Freeze(); err != nil {
			return nil, err
		}
		return m, nil
	case "ere":
		return ere.Compile(lb.Body, alphabet)
	case "ltl":
		return ltl.Compile(lb.Body, alphabet)
	case "cfg":
		return cfg.CompileAuto(lb.Body, alphabet)
	}
	return nil, fmt.Errorf("unknown formalism %q", lb.Kind)
}

// RunHandler interprets a handler body: each `print "..."` line yields one
// output line; anything else is ignored (handler bodies are arbitrary Java
// in the paper — printing is what its examples do).
func RunHandler(body string, emit func(string)) {
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		line = strings.TrimSuffix(line, ";")
		if rest, ok := strings.CutPrefix(line, "print"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			emit(rest)
		}
	}
}
