// Package tracematches reimplements the Tracematches-style monitoring
// engine the paper compares against (§3 Discussion, §5): a regex-only
// system that stores, per automaton state, a disjunction of partial
// variable bindings, and collects bindings using *state-indexed* coenable
// information — "more precise, but limited to finite logics", since the
// per-state analysis cannot exist for context-free properties.
//
// Differences from abc's tracematches, documented for honesty:
//
//   - Matching is prefix-based (like the RV semantics in this repo), not
//     suffix-based; both fire the handler at the same UNSAFEITER-style
//     violations for the workload shapes evaluated here.
//   - Negative bindings are not modelled; a transition that would move a
//     binding into a dead automaton state simply drops the fork.
//
// The performance profile preserved is the one the paper discusses:
// per-event work proportional to the number of candidate binding disjuncts
// (found through a per-value index, with a per-state scan fallback), fork
// duplication on binding extension, and eager state-based collection.
package tracematches

import (
	"fmt"

	"rvgo/internal/coenable"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// Stats mirrors the monitoring counters of the RV engine where meaningful.
type Stats struct {
	Events       uint64
	Created      uint64 // bindings created (incl. forks)
	Collected    uint64 // bindings dropped by state-based GC
	GoalVerdicts uint64
	Live         int64
	PeakLive     int64
}

type binding struct {
	inst  param.Instance
	state int
	dead  bool
}

// Engine is a tracematch instance for one property.
type Engine struct {
	spec  *monitor.Spec
	graph *logic.Graph
	// stateNeeds[s] is the state-indexed coenable family: parameter sets,
	// one of which must be fully alive for the binding to still reach a
	// goal state from s.
	stateNeeds [][]param.Set
	liveState  []bool
	// possibleMasks[s] are the binding domains that can reach state s; a
	// scan fallback is needed for (s, sym) when some mask misses D(sym).
	possibleMasks []map[param.Set]bool
	goal          func(logic.Category) bool

	byState  [][]*binding
	byValue  map[uint64][]*binding
	exists   map[bkey]bool
	onMatch  func(param.Instance)
	stats    Stats
	sinceGC  int
	gcPeriod int
}

type bkey struct {
	k param.Key
	s int
}

// Options configures the tracematch engine.
type Options struct {
	OnMatch func(param.Instance)
	// GCPeriod is the number of events between eager collection sweeps.
	GCPeriod int
}

// New builds a tracematch engine from a spec whose blueprint is finite
// (Explorable). CFG properties are rejected — the limitation the paper
// points out.
func New(spec *monitor.Spec, opts Options) (*Engine, error) {
	ex, ok := spec.BP.(logic.Explorable)
	if !ok {
		return nil, fmt.Errorf("tracematches: %q is not a finite-state property", spec.Name)
	}
	g, err := ex.Explore(monitor.ExploreLimit)
	if err != nil {
		return nil, err
	}
	goalSet := map[logic.Category]bool{}
	for _, c := range spec.Goal {
		goalSet[c] = true
	}
	goal := func(c logic.Category) bool { return goalSet[c] }

	e := &Engine{
		spec:     spec,
		graph:    g,
		goal:     goal,
		byState:  make([][]*binding, g.NumStates()),
		byValue:  map[uint64][]*binding{},
		exists:   map[bkey]bool{},
		onMatch:  opts.OnMatch,
		gcPeriod: opts.GCPeriod,
	}
	if e.gcPeriod <= 0 {
		e.gcPeriod = 512
	}

	// State-indexed coenable sets (SEEABLE per state, mapped through D).
	seeable := coenable.StateSeeable(g, goal)
	evParams := spec.EventParams()
	e.stateNeeds = make([][]param.Set, g.NumStates())
	e.liveState = coenable.CanReachGoal(g, goal)
	for s := range e.stateNeeds {
		fam := map[param.Set]bool{}
		for _, t := range seeable[s] {
			var ps param.Set
			for b := range evParams {
				if t.Has(b) {
					ps = ps.Union(evParams[b])
				}
			}
			fam[ps] = true
		}
		for f := range fam {
			e.stateNeeds[s] = append(e.stateNeeds[s], f)
		}
	}

	// possibleMasks fixpoint over the automaton.
	e.possibleMasks = make([]map[param.Set]bool, g.NumStates())
	for s := range e.possibleMasks {
		e.possibleMasks[s] = map[param.Set]bool{}
	}
	e.possibleMasks[0][0] = true
	for changed := true; changed; {
		changed = false
		for s := 0; s < g.NumStates(); s++ {
			for sym := range g.Alphabet {
				t := g.Next[s][sym]
				for mask := range e.possibleMasks[s] {
					nm := mask.Union(evParams[sym])
					if !e.possibleMasks[t][nm] {
						e.possibleMasks[t][nm] = true
						changed = true
					}
				}
			}
		}
	}
	return e, nil
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Spec returns the engine's specification; with Dispatch it makes the
// engine a monitor.Dispatcher.
func (e *Engine) Spec() *monitor.Spec { return e.spec }

// Dispatch processes one parametric event.
func (e *Engine) Dispatch(sym int, theta param.Instance) {
	e.stats.Events++
	evParams := e.spec.Events[sym].Params

	// Candidate bindings: those sharing one of θ's objects...
	visited := map[*binding]bool{}
	var cands []*binding
	for _, p := range evParams.Members() {
		id := theta.Value(p).ID()
		lst := e.byValue[id]
		w := 0
		for _, b := range lst {
			if b.dead {
				continue
			}
			lst[w] = b
			w++
			if !visited[b] {
				visited[b] = true
				cands = append(cands, b)
			}
		}
		e.byValue[id] = lst[:w]
	}
	// ...plus, per state with a live transition on sym, bindings that may
	// bind none of D(e)'s parameters (scan fallback).
	for s := range e.byState {
		if !e.liveState[e.graph.Next[s][sym]] {
			continue
		}
		need := false
		for mask := range e.possibleMasks[s] {
			if mask.Inter(evParams).Empty() {
				need = true
				break
			}
		}
		if !need {
			continue
		}
		for _, b := range e.byState[s] {
			if !b.dead && b.inst.Mask().Inter(evParams).Empty() && !visited[b] {
				visited[b] = true
				cands = append(cands, b)
			}
		}
	}

	for _, b := range cands {
		if b.dead || !b.inst.Compatible(theta) {
			continue
		}
		target := e.graph.Next[b.state][sym]
		if !e.liveState[target] {
			// The fork/move would die instantly; tracematches encodes this
			// as a constraint refinement, we just skip it. A move (no new
			// parameters) means this binding can never match: collect it.
			if evParams.SubsetOf(b.inst.Mask()) {
				e.drop(b)
			}
			continue
		}
		lub, _ := b.inst.Lub(theta)
		if lub.Key() == b.inst.Key() {
			// Move: retire the old disjunct, add the advanced one.
			e.retire(b)
			e.addBinding(lub, target)
		} else {
			// Extension: fork — the narrower binding stays for other
			// future combinations (the disjunct duplication that makes
			// tracematches memory-hungry on multi-variable properties).
			e.addBinding(lub, target)
		}
	}

	// A fresh binding starting at the initial state.
	if t := e.graph.Next[0][sym]; e.liveState[t] {
		e.addBinding(theta, t)
	}

	e.sinceGC++
	if e.sinceGC >= e.gcPeriod {
		e.sinceGC = 0
		e.Sweep()
	}
}

func (e *Engine) addBinding(inst param.Instance, state int) {
	k := bkey{k: inst.Key(), s: state}
	if e.exists[k] {
		return
	}
	b := &binding{inst: inst, state: state}
	e.exists[k] = true
	e.stats.Created++
	e.stats.Live++
	if e.stats.Live > e.stats.PeakLive {
		e.stats.PeakLive = e.stats.Live
	}
	if e.matched(b) {
		return
	}
	e.register(b)
}

// matched reports and retires the binding when it reached a goal state.
func (e *Engine) matched(b *binding) bool {
	if !e.goal(e.graph.Cat[b.state]) {
		return false
	}
	e.stats.GoalVerdicts++
	if e.onMatch != nil {
		e.onMatch(b.inst)
	}
	e.retire(b)
	return true
}

func (e *Engine) register(b *binding) {
	e.byState[b.state] = append(e.byState[b.state], b)
	for _, p := range b.inst.Mask().Members() {
		id := b.inst.Value(p).ID()
		e.byValue[id] = append(e.byValue[id], b)
	}
}

// retire removes a binding that moved or matched (not a GC collection);
// list entries are compacted lazily.
func (e *Engine) retire(b *binding) {
	if b.dead {
		return
	}
	b.dead = true
	delete(e.exists, bkey{k: b.inst.Key(), s: b.state})
	e.stats.Live--
}

// drop removes a binding by state-based garbage collection.
func (e *Engine) drop(b *binding) {
	if b.dead {
		return
	}
	e.retire(b)
	e.stats.Collected++
}

// Sweep is the eager state-based collection pass: a binding whose state
// needs a parameter set that is no longer fully alive can never complete.
func (e *Engine) Sweep() {
	for s := range e.byState {
		lst := e.byState[s]
		w := 0
		for _, b := range lst {
			if b.dead {
				continue
			}
			if !e.needsAlive(b) {
				e.drop(b)
				continue
			}
			lst[w] = b
			w++
		}
		for j := w; j < len(lst); j++ {
			lst[j] = nil
		}
		e.byState[s] = lst[:w]
	}
	for id, lst := range e.byValue {
		w := 0
		for _, b := range lst {
			if !b.dead {
				lst[w] = b
				w++
			}
		}
		if w == 0 {
			delete(e.byValue, id)
		} else {
			e.byValue[id] = lst[:w]
		}
	}
}

// needsAlive evaluates the state-indexed ALIVENESS: some needed parameter
// set must be fully alive (unbound parameters count as live).
func (e *Engine) needsAlive(b *binding) bool {
	needs := e.stateNeeds[b.state]
	if len(needs) == 0 {
		return false
	}
	bound := b.inst.Mask()
	deadBound := bound.Diff(b.inst.AliveMask())
	for _, s := range needs {
		if s.Inter(deadBound).Empty() {
			return true
		}
	}
	return false
}
