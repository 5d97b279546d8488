// Package monitor implements the RV parametric monitoring engine (paper
// §4): event dispatch through the indexed θ-table, monitor-instance creation
// with enable-set avoidance, and the paper's contribution — lazy garbage
// collection of unnecessary monitor instances driven by coenable sets.
package monitor

import (
	"cmp"
	"fmt"
	"slices"

	"rvgo/internal/cfg"
	"rvgo/internal/coenable"
	"rvgo/internal/logic"
	"rvgo/internal/param"
)

// ExploreLimit bounds state-graph exploration during static analysis.
const ExploreLimit = 1 << 15

// EventDef declares one parametric event: its name and D(e), the parameters
// it instantiates (Definition 4).
type EventDef struct {
	Name   string
	Params param.Set
}

// Spec is a compiled parametric specification: parameters X, events with
// their parameter bindings D, a base-monitor blueprint, and the verdict
// categories of interest G (the ones carrying handlers).
type Spec struct {
	Name   string
	Params []string
	Events []EventDef
	BP     logic.Blueprint
	Goal   []logic.Category

	analysis *Analysis
	runBP    logic.Blueprint // blueprint actually used at runtime
	goalSet  map[logic.Category]bool
	// symIdx is the name→symbol map backing Symbol. It is written once,
	// inside Analyze (strictly before any backend worker can exist), and
	// read-only afterwards, so concurrent EmitNamed calls need no lock.
	symIdx map[string]int
}

// Analysis holds the products of the static analyses of §3: coenable and
// enable sets at both event and parameter granularity, creation events, and
// the dead-state predicate used for monitor termination.
type Analysis struct {
	// CoenEvents and EnableEvents are the Section 3 set families, for
	// display and tests.
	CoenEvents   coenable.Sets
	EnableEvents coenable.Sets
	// CoenParams[sym] is COENABLE^X(e): the ALIVENESS disjuncts.
	CoenParams [][]param.Set
	// EnableParams[sym] is ENABLE^X(e) as a membership set: the parameter
	// sets D(w) of prefixes w of goal traces containing e.
	EnableParams []map[param.Set]bool
	// Creation[sym] reports ∅ ∈ ENABLE(e): e can begin a goal trace.
	Creation []bool
	// Domains are the instance domains: the nonempty event parameter sets
	// closed under union, the largest first (then by ascending mask). Every
	// monitor's binding has one of them as its domain.
	Domains []param.Set
	// HasCoenable reports whether coenable information exists (false for
	// CFG properties whose goal is not {match}; such monitors fall back to
	// all-parameters-dead collection).
	HasCoenable bool
	// Doomed is the per-state cannot-reach-goal predicate over the explored
	// graph (nil for non-graph blueprints): the engine's static creation
	// guard consults it before materializing a monitor. See
	// coenable.Doomed.
	Doomed []bool
	// Guards is the per-symbol static creation-guard summary (nil for
	// non-graph blueprints), for introspection and the avoidance report.
	Guards []coenable.GuardInfo
	// dead reports that a state can never (again) trigger a goal handler.
	dead func(logic.State) bool
}

// Dead reports whether a monitor in state s can never trigger again.
func (a *Analysis) Dead(s logic.State) bool {
	if a.dead == nil {
		return false
	}
	return a.dead(s)
}

// Validate checks the spec's structural invariants.
func (s *Spec) Validate() error {
	if len(s.Params) == 0 || len(s.Params) > param.MaxParams {
		return fmt.Errorf("monitor: spec %q has %d parameters, want 1..%d", s.Name, len(s.Params), param.MaxParams)
	}
	alpha := s.BP.Alphabet()
	if len(alpha) != len(s.Events) {
		return fmt.Errorf("monitor: spec %q has %d events but blueprint alphabet %d", s.Name, len(s.Events), len(alpha))
	}
	for i, e := range s.Events {
		if e.Name != alpha[i] {
			return fmt.Errorf("monitor: spec %q event %d is %q but alphabet has %q", s.Name, i, e.Name, alpha[i])
		}
		if !e.Params.SubsetOf(param.Set(1<<uint(len(s.Params))) - 1) {
			return fmt.Errorf("monitor: spec %q event %q binds undeclared parameters", s.Name, e.Name)
		}
	}
	if len(s.Goal) == 0 {
		return fmt.Errorf("monitor: spec %q has no goal categories (no handlers)", s.Name)
	}
	return nil
}

// Symbol returns the symbol index for an event name. After Analyze has
// run (every runtime backend requires it, and the rvgo façade runs it at
// spec-build time) lookups go through the name→symbol map, so EmitNamed
// and emitter resolution cost one map read regardless of alphabet size.
// Before Analyze — spec construction is single-threaded — it falls back
// to a scan rather than racing to build the map.
func (s *Spec) Symbol(name string) (int, bool) {
	if s.symIdx != nil {
		sym, ok := s.symIdx[name]
		return sym, ok
	}
	for i, e := range s.Events {
		if e.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Resolve is EmitNamed's front half: the symbol of
// the event called name, provided nvals values is what it binds. Unknown
// names and arity mismatches are errors, so EmitNamed — unlike Emit, the
// index-based hot path — never panics on caller input.
func (s *Spec) Resolve(name string, nvals int) (int, error) {
	sym, ok := s.Symbol(name)
	if !ok {
		return 0, fmt.Errorf("monitor: spec %q has no event %q", s.Name, name)
	}
	if want := s.Events[sym].Params.Count(); nvals != want {
		return 0, fmt.Errorf("monitor: event %q takes %d values, got %d", name, want, nvals)
	}
	return sym, nil
}

// EventParams returns D as a slice indexed by symbol.
func (s *Spec) EventParams() []param.Set {
	ps := make([]param.Set, len(s.Events))
	for i, e := range s.Events {
		ps[i] = e.Params
	}
	return ps
}

// IsGoal reports whether a category is in G.
func (s *Spec) IsGoal(c logic.Category) bool { return s.goalSet[c] }

// Analysis returns the static-analysis products, running Analyze on first
// use.
func (s *Spec) Analysis() (*Analysis, error) {
	if s.analysis == nil {
		if err := s.Analyze(); err != nil {
			return nil, err
		}
	}
	return s.analysis, nil
}

// RuntimeBlueprint returns the blueprint used for monitoring. For finite
// (Explorable) formalisms this is the explored graph — integer states, one
// array read per step — demonstrating that the engine is driven purely by
// the abstract monitor interface.
func (s *Spec) RuntimeBlueprint() logic.Blueprint {
	if s.runBP == nil {
		if err := s.Analyze(); err != nil {
			panic(err)
		}
	}
	return s.runBP
}

// Analyze runs the static analyses of §3 for the spec.
func (s *Spec) Analyze() error {
	if s.analysis != nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		return err
	}
	s.goalSet = map[logic.Category]bool{}
	for _, c := range s.Goal {
		s.goalSet[c] = true
	}
	s.symIdx = make(map[string]int, len(s.Events))
	for i, e := range s.Events {
		s.symIdx[e.Name] = i
	}
	goal := func(c logic.Category) bool { return s.goalSet[c] }
	a := &Analysis{}
	evParams := s.EventParams()

	switch bp := s.BP.(type) {
	case logic.Explorable:
		g, err := bp.Explore(ExploreLimit)
		if err != nil {
			return fmt.Errorf("monitor: exploring %q: %w", s.Name, err)
		}
		a.CoenEvents = coenable.FromGraph(g, goal)
		a.EnableEvents = coenable.EnableFromGraph(g, goal)
		a.HasCoenable = true
		// Prebox the graph's states before any engine steps a monitor:
		// every Step then returns a preallocated interface value (see
		// logic.Graph.Box), keeping the dispatch hot path allocation-free.
		g.Box()
		s.runBP = logic.GraphBlueprint{G: g}
		a.dead = deadFromGraph(g, goal)
		a.Doomed = coenable.Doomed(g, goal)
		a.Guards = coenable.Guards(g, goal, a.EnableEvents)
	case cfgBlueprint:
		s.runBP = bp
		if len(s.Goal) == 1 && s.Goal[0] == logic.Match {
			a.CoenEvents = bp.Grammar().Coenable()
			a.EnableEvents = bp.Grammar().Enable()
			a.HasCoenable = true
		} else {
			// No static analysis for non-match CFG goals: the monitor is
			// only collected when all parameter objects die (the JavaMOP
			// condition), plus sink termination below.
			a.CoenEvents = make(coenable.Sets, len(s.Events))
			a.EnableEvents = universalEnable(len(s.Events))
		}
		a.dead = func(st logic.State) bool {
			c := st.Category()
			if c == logic.Fail {
				// The Earley fail sink is permanent: report once (the
				// engine reports before the dead check), then terminate.
				return true
			}
			return false
		}
	default:
		a.CoenEvents = make(coenable.Sets, len(s.Events))
		a.EnableEvents = universalEnable(len(s.Events))
		s.runBP = s.BP
	}

	if a.HasCoenable {
		a.CoenParams = coenable.ParamSets(a.CoenEvents, evParams)
	} else {
		a.CoenParams = make([][]param.Set, len(s.Events))
	}
	a.EnableParams = make([]map[param.Set]bool, len(s.Events))
	a.Creation = make([]bool, len(s.Events))
	for sym := range s.Events {
		m := map[param.Set]bool{}
		// ParamSets minimizes by absorption, which is correct for the
		// ALIVENESS disjunction but not for the enable membership test;
		// recompute the full image here.
		for _, es := range a.EnableEvents[sym] {
			var ps param.Set
			for b := range s.Events {
				if es.Has(b) {
					ps = ps.Union(evParams[b])
				}
			}
			m[ps] = true
		}
		a.EnableParams[sym] = m
		a.Creation[sym] = m[param.Set(0)]
	}
	a.Domains = instanceDomains(evParams)
	s.analysis = a
	return nil
}

// instanceDomains closes the nonempty event domains under union and
// orders them the largest first, then by ascending mask.
func instanceDomains(evParams []param.Set) []param.Set {
	var doms []param.Set
	for _, d := range evParams {
		if !d.Empty() && !slices.Contains(doms, d) {
			doms = append(doms, d)
		}
	}
	for i := 0; i < len(doms); i++ {
		for j := 0; j < i; j++ {
			if u := doms[i].Union(doms[j]); !slices.Contains(doms, u) {
				doms = append(doms, u)
			}
		}
	}
	slices.SortFunc(doms, func(x, y param.Set) int {
		return cmp.Or(y.Count()-x.Count(), int(x)-int(y))
	})
	return doms
}

// Joins reports whether an event of symbol sym joins its binding with the
// instances of domain R to create monitors under strategy c: R must not
// contain D(sym) (those instances are ⊒ θ, and dispatch steps them), and
// under CreateEnable some nonempty enable parameter set of sym must fit
// inside R (an exactly-R progenitor's paramsSeen is a nonempty subset of
// R). The engine's join plans are the domains it accepts, and a sharded
// router reads it to tell which events may skip the lanes that never met
// their objects (shard.Router.Maskable). The spec must be analyzed.
func (s *Spec) Joins(sym int, R param.Set, c CreationStrategy) bool {
	if s.Events[sym].Params.SubsetOf(R) {
		return false
	}
	if c != CreateEnable {
		return true
	}
	for y := range s.analysis.EnableParams[sym] {
		if !y.Empty() && y.SubsetOf(R) {
			return true
		}
	}
	return false
}

// cfgBlueprint is satisfied by both CFG monitor backends (the incremental
// Earley recognizer and the table-driven SLR(1) recognizer): either way
// the §3 grammar-level analyses apply.
type cfgBlueprint interface {
	logic.Blueprint
	Grammar() *cfg.Grammar
}

// universalEnable is the no-information enable family: every event may
// start a trace and be preceded by anything — all creation permitted.
func universalEnable(n int) coenable.Sets {
	sets := make(coenable.Sets, n)
	all := coenable.EventSet(1)<<uint(n) - 1
	for i := range sets {
		var fam []coenable.EventSet
		for t := coenable.EventSet(0); ; t++ {
			fam = append(fam, t)
			if t == all {
				break
			}
		}
		sets[i] = fam
	}
	return sets
}

// deadFromGraph builds the monitor-termination predicate: a state is dead
// when no goal handler can trigger in the future — either no goal state is
// reachable in ≥1 steps, or the state is an absorbing goal sink (the
// handler has already run and re-running it would report the same verdict
// forever).
func deadFromGraph(g *logic.Graph, goal coenable.Goal) func(logic.State) bool {
	reach0 := coenable.CanReachGoal(g, goal)
	n := g.NumStates()
	dead := make([]bool, n)
	for s := 0; s < n; s++ {
		future := false
		sink := true
		for a := range g.Alphabet {
			t := g.Next[s][a]
			if reach0[t] {
				future = true
			}
			if t != s {
				sink = false
			}
		}
		dead[s] = !future || (sink && goal(g.Cat[s]))
	}
	return func(st logic.State) bool {
		gs, ok := st.(logic.GraphState)
		if !ok {
			return false
		}
		return dead[gs.S]
	}
}
