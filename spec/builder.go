package spec

import (
	"fmt"
	"strings"

	"rvgo/internal/logic"
	ispec "rvgo/internal/spec"
)

// Builder assembles a parametric property fluently:
//
//	s, err := spec.New("UnsafeIter").
//		Params("c", "i").
//		Event("create", "c", "i").
//		Event("update", "c").
//		Event("next", "i").
//		ERE("update* create next* update+ next").
//		Build()
//
// Exactly one logic block (FSM, ERE, LTL or CFG) must be given; the
// block's language is the alphabet of declared events, in declaration
// order. Errors accumulate and are reported by Build, which also runs
// validation and the Section 3 static analyses, so a non-nil *Spec is
// ready to monitor. The Builder only gathers the declarations: Build
// checks and assembles them with the .rv compiler's code.
type Builder struct {
	p    ispec.Property
	lb   ispec.LogicBlock
	goal []string
	errs []string
}

// New starts a property definition.
func New(name string) *Builder { return &Builder{p: ispec.Property{Name: name}} }

// Params declares the property's parameters, in index order.
func (b *Builder) Params(names ...string) *Builder {
	for _, name := range names {
		b.p.Params = append(b.p.Params, ispec.Param{Name: name})
	}
	return b
}

// Event declares a parametric event: its name and the parameters it
// binds (D(e)), by parameter name. Declaration order is symbol order and
// defines the alphabet of the logic block.
func (b *Builder) Event(name string, params ...string) *Builder {
	b.p.Events = append(b.p.Events, ispec.EventDecl{Name: name, Params: params})
	return b
}

// FSMState is one state of an FSM logic block: its name and its
// transitions. The first state passed to FSM is the start state; states
// without outgoing transitions are terminal.
type FSMState struct {
	Name        string
	Transitions []FSMTransition
}

// FSMTransition is one FSM edge: on event On, move to state To.
type FSMTransition struct {
	On, To string
}

// State builds an FSMState from alternating on-event/to-state pairs:
//
//	spec.State("more", "hasnexttrue", "more", "next", "unknown")
func State(name string, pairs ...string) FSMState {
	st := FSMState{Name: name}
	for i := 0; i+1 < len(pairs); i += 2 {
		st.Transitions = append(st.Transitions, FSMTransition{On: pairs[i], To: pairs[i+1]})
	}
	if len(pairs)%2 != 0 {
		// Surfaced as a build error by FSM below; an FSMState cannot
		// carry an error itself.
		st.Transitions = append(st.Transitions, FSMTransition{On: pairs[len(pairs)-1], To: ""})
	}
	return st
}

// FSM sets the logic block to a finite-state machine over the declared
// events. Goal categories are the names of the goal states (an FSM has no
// default goal; set one with Goal).
func (b *Builder) FSM(states ...FSMState) *Builder {
	b.setKind("fsm")
	for _, st := range states {
		s := ispec.FSMState{Name: st.Name}
		for _, tr := range st.Transitions {
			if tr.To == "" {
				b.errorf("state %q: State(...) takes alternating event/target pairs", st.Name)
			}
			s.Trans = append(s.Trans, ispec.FSMTrans{Event: tr.On, To: tr.To})
		}
		b.lb.FSM = append(b.lb.FSM, s)
	}
	return b
}

// ERE sets the logic block to an extended regular expression over the
// declared events. The default goal category is Match.
func (b *Builder) ERE(expr string) *Builder {
	b.setKind("ere")
	b.lb.Body = expr
	return b
}

// LTL sets the logic block to a past-time LTL formula over the declared
// events. The default goal category is Violation.
func (b *Builder) LTL(formula string) *Builder {
	b.setKind("ltl")
	b.lb.Body = formula
	return b
}

// CFG sets the logic block to a context-free grammar over the declared
// events. The default goal category is Fail (the trace left the
// language's prefix closure); a Goal of Match admits the grammar-level
// coenable analysis instead.
func (b *Builder) CFG(grammar string) *Builder {
	b.setKind("cfg")
	b.lb.Body = grammar
	return b
}

// Goal sets the verdict categories of interest G — the ones that invoke
// the verdict handler. It overrides the formalism's default.
func (b *Builder) Goal(categories ...string) *Builder {
	b.goal = append(b.goal, categories...)
	return b
}

func (b *Builder) setKind(kind string) {
	if b.lb.Kind != "" {
		b.errorf("property %q has both a %s and a %s block; exactly one logic block is allowed", b.p.Name, b.lb.Kind, kind)
		return
	}
	b.lb.Kind = kind
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// Build compiles and analyzes the property. All accumulated definition
// errors, compilation errors and static-analysis errors are reported
// here — a non-nil Spec never fails later at dispatch time.
func (b *Builder) Build() (*Spec, error) {
	if b.lb.Kind == "" {
		b.errorf("property %q has no logic block (use FSM, ERE, LTL or CFG)", b.p.Name)
	}
	b.errs = append(b.errs, b.p.DeclErrors()...)
	goal := b.goal
	if len(goal) == 0 {
		switch b.lb.Kind {
		case "ere":
			goal = []string{Match}
		case "ltl":
			goal = []string{Violation}
		case "cfg":
			goal = []string{Fail}
		case "fsm":
			b.errorf("property %q: an FSM block needs an explicit Goal (its categories are its state names)", b.p.Name)
		}
	}
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("spec: building %q: %s", b.p.Name, strings.Join(b.errs, "; "))
	}
	cats := make([]logic.Category, len(goal))
	for i, g := range goal {
		cats[i] = logic.Category(g)
	}
	ms, err := b.p.Assemble(b.p.Name, b.lb, cats)
	if err != nil {
		return nil, fmt.Errorf("spec: building %q: %w", b.p.Name, err)
	}
	return &Spec{ms: ms, kind: b.lb.Kind}, nil
}
