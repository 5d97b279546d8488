package spec_test

import (
	"strings"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/spec"
)

const hasNextSrc = `
// HASNEXT, Figure 2.
HasNext(Iterator i) {
    event hasnexttrue(i)
    event hasnextfalse(i)
    event next(i)

    fsm:
    unknown [
        hasnexttrue -> more
        hasnextfalse -> none
        next -> error
    ]
    more [
        hasnexttrue -> more
        hasnextfalse -> none
        next -> unknown
    ]
    none [
        hasnextfalse -> none
        hasnexttrue -> more
        next -> error
    ]
    error [ ]
    @error { print "improper Iterator use found!" }

    ltl: [] (next -> (*) hasnexttrue)
    @violation { print "improper Iterator use found!" }
}
`

const unsafeIterSrc = `
UnsafeIter(Collection c, Iterator i) {
    event create(c, i)
    event update(c)
    event next(i)
    ere : update* create next* update+ next
    @match { print "improper Concurrent Modification found!" }
}
`

const safeLockSrc = `
SafeLock(Lock l, Thread t) {
    event acquire(l, t)
    event release(l, t)
    event begin(t)
    event end(t)
    cfg : S -> S begin S end | S acquire S release | epsilon
    @fail { print "improper Lock use found!" }
}
`

func TestParseHasNext(t *testing.T) {
	p, err := spec.Parse(hasNextSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "HasNext" {
		t.Fatalf("name = %q", p.Name)
	}
	if len(p.Params) != 1 || p.Params[0].Name != "i" || p.Params[0].Type != "Iterator" {
		t.Fatalf("params = %+v", p.Params)
	}
	if len(p.Events) != 3 {
		t.Fatalf("events = %+v", p.Events)
	}
	if len(p.Logics) != 2 || p.Logics[0].Kind != "fsm" || p.Logics[1].Kind != "ltl" {
		t.Fatalf("logics = %+v", p.Logics)
	}
	if len(p.Logics[0].FSM) != 4 {
		t.Fatalf("fsm states = %d", len(p.Logics[0].FSM))
	}
	if p.Logics[1].Body != "[] (next -> (*) hasnexttrue)" {
		t.Fatalf("ltl body = %q", p.Logics[1].Body)
	}
	if p.Logics[0].Handlers[0].Category != "error" {
		t.Fatalf("handler = %+v", p.Logics[0].Handlers)
	}
}

// TestCompileAndRunBothFormalisms: the two logic blocks of Figure 2 flag
// the same violation.
func TestCompileAndRunBothFormalisms(t *testing.T) {
	p, err := spec.Parse(hasNextSrc)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled) != 2 {
		t.Fatalf("compiled %d blocks", len(compiled))
	}
	h := heap.New()
	it := h.Alloc("i1")
	for _, c := range compiled {
		verdicts := 0
		eng, err := monitor.New(c.Spec, monitor.Options{
			GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
			OnVerdict: func(monitor.Verdict) { verdicts++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range []string{"hasnexttrue", "next", "next"} {
			if err := monitor.EmitNamed(eng, ev, it); err != nil {
				t.Fatal(err)
			}
		}
		if verdicts != 1 {
			t.Fatalf("%s block: %d verdicts, want 1", c.Kind, verdicts)
		}
	}
}

func TestCompileEREProperty(t *testing.T) {
	p, err := spec.Parse(unsafeIterSrc)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s := compiled[0].Spec
	if !s.IsGoal(logic.Match) {
		t.Fatal("goal must include match")
	}
	an, err := s.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	if !an.HasCoenable {
		t.Fatal("ERE property must have coenable analysis")
	}
	sym, ok := s.Symbol("create")
	if !ok || s.Events[sym].Params.Count() != 2 {
		t.Fatal("create must bind two parameters")
	}
}

func TestCompileCFGProperty(t *testing.T) {
	p, err := spec.Parse(safeLockSrc)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	l, th := h.Alloc("l"), h.Alloc("t")
	verdicts := 0
	eng, err := monitor.New(compiled[0].Spec, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
		OnVerdict: func(monitor.Verdict) { verdicts++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range [][]any{
		{"acquire", l, th}, {"release", l, th}, {"release", l, th},
	} {
		var vals []heap.Ref
		for _, v := range ev[1:] {
			vals = append(vals, v.(*heap.Object))
		}
		if err := monitor.EmitNamed(eng, ev[0].(string), vals...); err != nil {
			t.Fatal(err)
		}
	}
	if verdicts != 1 {
		t.Fatalf("verdicts = %d", verdicts)
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"no name":         `(x) { event e(x) ere: e @match {} }`,
		"no params":       `P() { event e() ere: e @match {} }`,
		"no events":       `P(x) { ere: x @match {} }`,
		"no logic":        `P(x) { event e(x) }`,
		"no handlers":     `P(x) { event e(x) ere: e }`,
		"undeclared":      `P(x) { event e(y) ere: e @match { } }`,
		"dup events":      `P(x) { event e(x) event e(x) ere: e @match { } }`,
		"orphan handler":  `P(x) { event e(x) @match { } ere: e }`,
		"unclosed":        `P(x) { event e(x) ere: e @match {`,
		"bad fsm":         `P(x) { event e(x) fsm: @match { } }`,
		"bad transition":  `P(x) { event e(x) fsm: s [ e -> ] @s { } }`,
		"unknown pattern": `P(x) { event e(x) ere: nosuch @match { } }`,
	}
	for name, src := range bad {
		p, err := spec.Parse(src)
		if err == nil {
			_, err = p.Compile()
		}
		if err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestRunHandler(t *testing.T) {
	var out []string
	spec.RunHandler(`print "hello";`+"\n"+`somejava();`+"\n"+`print "world"`, func(s string) {
		out = append(out, s)
	})
	if strings.Join(out, "|") != "hello|world" {
		t.Fatalf("handler output = %v", out)
	}
}
