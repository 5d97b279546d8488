package monitor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"rvgo/internal/arena"
	"rvgo/internal/heap"
	"rvgo/internal/index"
	"rvgo/internal/logic"
	"rvgo/internal/metrics"
	"rvgo/internal/param"
)

// GCPolicy selects how monitor instances are reclaimed.
type GCPolicy int

const (
	// GCNone never flags monitors: the pre-GC baseline.
	GCNone GCPolicy = iota
	// GCAllDead flags a monitor only when every bound parameter object has
	// been collected — the JavaMOP condition the paper improves upon.
	GCAllDead
	// GCCoenable is the paper's contribution: a monitor is flagged as soon
	// as its ALIVENESS formula (derived from coenable sets and the last
	// event observed) becomes false, plus termination of dead states.
	GCCoenable
)

func (p GCPolicy) String() string {
	switch p {
	case GCNone:
		return "none"
	case GCAllDead:
		return "alldead"
	case GCCoenable:
		return "coenable"
	}
	return fmt.Sprintf("GCPolicy(%d)", int(p))
}

// CreationStrategy selects how new monitor instances are materialized.
type CreationStrategy int

const (
	// CreateEnable uses the enable-set analysis (Chen et al., ASE'09) plus
	// a fresh-object guard: a progenitor θ'' may be extended to θ' only
	// when the parameters in dom(θ')\dom(θ'') bind objects receiving their
	// first event now. Sound for G-verdicts; skips instances that could
	// never trigger. This is the production strategy.
	CreateEnable CreationStrategy = iota
	// CreateFull materializes every lub {θ} ⊔ Θ exactly as in Figure 5.
	// Quadratic in the worst case; used as the semantic oracle in tests.
	CreateFull
)

// Verdict is one goal-category report delivered to the handler.
type Verdict struct {
	Spec *Spec
	Sym  int
	Cat  logic.Category
	Inst param.Instance
}

// Options configures an Engine.
type Options struct {
	GC       GCPolicy
	Creation CreationStrategy
	// OnVerdict is the specification handler; nil counts verdicts only.
	//
	// Concurrency contract (it differs per backend, and the façade's
	// WithVerdictHandler documents the same rules for users): on the
	// sequential Engine the handler runs synchronously on the goroutine
	// calling Dispatch; on the sharded runtime it runs on worker
	// goroutines, serialized (never two invocations at once), with
	// handler-written state readable by other goroutines only after a
	// Barrier, Flush or Close; on the remote client it runs on the
	// session's reader goroutine and must not call back into the client.
	OnVerdict func(Verdict)
	// SweepInterval is the number of events between sweeps, the engine's
	// one death-discovery pass: θ-records with a dead object lose their
	// leaves, Δ entry, tombstone and table mapping (0 = default, 4096).
	SweepInterval int
	// Avoid selects the creation-avoidance mode: off (default), audit
	// (count guard hits in Stats.Avoided, create anyway), or enforce
	// (suppress guarded creations; per-slice verdicts stay bit-identical
	// to the unguarded engine — see avoid.go for the soundness boundary).
	Avoid AvoidMode
	// ProfileGuards, when non-nil, is a per-symbol guard vector (usually
	// CreationProfile.Guards from a recorded-trace replay) consulted by
	// the avoidance guard in addition to the static doomed analysis. It
	// has effect only when Avoid is not AvoidOff, and enforcement is
	// restricted to maximal-domain creations.
	ProfileGuards []bool
	// Profile, when non-nil, accumulates per-creation-site statistics
	// (see CreationProfile). Engine-local and unsynchronized: sequential
	// engines only; read it after Flush/Close.
	Profile *CreationProfile
	// Metrics, when non-nil, receives the engine's telemetry. The engine
	// keeps its exact non-atomic Stats and publishes *deltas* into the
	// shared atomic series at amortized points — every publishInterval
	// events, after each sweep, and on Flush/Close — so the hot path stays
	// allocation-free and scrape-side reads race nothing. Series values lag
	// the true counters by at most publishInterval events until the next
	// Flush/Close settles them. Multiple engines (shard workers, repeated
	// sessions of one tenant) may share one series; deltas sum correctly.
	Metrics *metrics.EngineSeries
}

// Check is the one statement of which configurations are legal for spec
// run over lanes pivot lanes — shards, parallel replay workers, cluster
// slots; 1 is a single sequential engine. Every boundary that builds
// engines calls it with the lane count it was asked for, before clamping
// the count for an unshardable spec, so a configuration is refused the same
// way whichever front receives it.
func (o Options) Check(spec *Spec, lanes int) error {
	switch {
	case o.GC < GCNone || o.GC > GCCoenable:
		return fmt.Errorf("monitor: unknown GC policy %d", o.GC)
	case o.Creation != CreateEnable && o.Creation != CreateFull:
		return fmt.Errorf("monitor: unknown creation strategy %d", o.Creation)
	case o.Avoid < AvoidOff || o.Avoid > AvoidEnforce:
		return fmt.Errorf("monitor: unknown avoidance mode %d", o.Avoid)
	case o.Avoid == AvoidEnforce && o.Creation == CreateFull && o.GC != GCNone:
		return fmt.Errorf("monitor: enforced creation avoidance under the full strategy requires the none GC policy (a tombstone cannot mirror the flag timing that ends a real doomed monitor's Figure-5 progenitor role); use audit mode")
	case o.ProfileGuards != nil && len(o.ProfileGuards) != len(spec.Events):
		return fmt.Errorf("monitor: profile guards cover %d events, spec %q has %d", len(o.ProfileGuards), spec.Name, len(spec.Events))
	case lanes > 1 && o.Creation != CreateEnable:
		return fmt.Errorf("monitor: the full creation strategy requires a single lane, not %d (only enable-set creation guarantees every monitor binds the pivot)", lanes)
	case lanes > 1 && o.Profile != nil:
		return fmt.Errorf("monitor: creation profiling requires a single lane, not %d (the profile counters are engine-local and unsynchronized)", lanes)
	}
	return nil
}

// publishInterval is the delta-publication period in events; a power of
// two so the hot-path check is a mask.
const publishInterval = 256

// Stats are the monitoring counters of the paper's Figure 10, plus some.
type Stats struct {
	Events       uint64 // E: parametric events dispatched
	Created      uint64 // M: monitor instances created
	Flagged      uint64 // FM: flagged unnecessary by ALIVENESS/termination
	Collected    uint64 // CM: dropped from every container
	GoalVerdicts uint64 // handler invocations
	Steps        uint64 // base-monitor transitions taken
	Avoided      uint64 // creations suppressed (or, in audit mode, only counted) by the avoidance guards
	Live         int64  // currently live (uncollected) monitors
	PeakLive     int64  // maximum of Live
}

// Merge adds the counters of one lane — a shard's engine, a cluster slot's
// session — into s. Every slice lives in exactly one lane, so the
// engine-side counters sum exactly. Events is left alone: a broadcast is
// one event however many lanes stepped on it, so the front that fanned the
// stream out counts events itself.
func (s *Stats) Merge(lane Stats) {
	s.Created += lane.Created
	s.Flagged += lane.Flagged
	s.Collected += lane.Collected
	s.GoalVerdicts += lane.GoalVerdicts
	s.Steps += lane.Steps
	s.Avoided += lane.Avoided
	s.Live += lane.Live
	s.PeakLive += lane.PeakLive
}

// Monitor record flags. A flagged monitor has been proven unnecessary by
// ALIVENESS/termination; a collected monitor has been dropped by every
// container. A record is recycled only once it is both collected and out
// of Δ (its θ-record's mon no longer names it).
const (
	monFlagged uint8 = 1 << iota
	monCollected
	// monStepped marks the birth step as taken; monRestepped and
	// monGoaled dedupe the creation-profile counters (set only when a
	// CreationProfile is attached).
	monStepped
	monRestepped
	monGoaled
)

// Mon is one monitor-instance record: a handle to its parameter instance θ
// (a slot in the engine's interner arena), the state of its trace slice,
// and GC bookkeeping. Mon is deliberately pointer-free: monitor records
// live in slab arenas (see package arena) whose slabs the host garbage
// collector never scans, so ten million live monitors cost the collector
// exactly as much as zero. Everything a Mon used to reach through pointers
// — the engine, its instance, its boxed logic state — is reached through
// the owning engine instead.
type Mon struct {
	instH      arena.Handle // θ-record in the engine's θ-table
	state      uint32       // graph-mode logic state word (see Engine.g)
	lastSym    int32
	refs       int32 // container refcount (reachability stand-in)
	paramsSeen param.Set
	birthSym   int16 // creating event symbol (creation-site identity)
	flags      uint8
}

// theta is what the engine keeps per parameter instance θ besides the
// bindings themselves: the payload of a θ-table slot (param.Slot), so one
// map lookup per event finds all of it.
type theta struct {
	// mon is Δ(θ), arena.Nil while θ has no monitor. It is kept while the
	// monitor is flagged, so a terminated instance is never re-materialized
	// with a wrong slice; the sweep clears it.
	mon arena.Handle
	// stamp is the number of the last event that processed θ — stepped,
	// created or tombstoned it, or found it already in Δ. Comparing against
	// Stats.Events is the per-event processed set; nothing is cleared.
	stamp uint64
	// leaf heads the chain of leaf records keyed by θ (index.Leaves): one
	// per monitor domain R with members under θ, holding the monitors of
	// domain R whose instance extends θ — the indexing trees' leaf for the
	// key tuple θ, as a column of the θ-table.
	leaf  arena.Handle
	flags uint8
}

const (
	// thetaAvoided is the enforce-mode tombstone of a suppressed creation.
	thetaAvoided uint8 = 1 << iota
	// thetaSeenEvent records that θ occurred as a multi-parameter event,
	// for the fresh-object creation guard (priorEventsOK).
	thetaSeenEvent
)

// Engine is the RV runtime for one specification. Its bulk state is three
// slab pools that name each other by handle: monitor records (mons; Mon.instH
// names the monitor's θ-record), θ-records (intern; theta.mon names Δ(θ) and
// theta.leaf the head of θ's leaf chain) and leaf records (leaves; their
// members are monitor handles). The θ-table is the only structure keyed by
// the monitored program's objects and the sweep the only pass that notices
// their deaths. Every whole-structure pass — the propositional walk, the
// CreateFull scan, insert, sweep, Flush, Monitors — walks slabs and slices
// in index order, so nothing the engine computes depends on Go map
// iteration order (the per-object seen table is ranged only to drop dead
// entries).
type Engine struct {
	spec *Spec
	an   *Analysis
	opts Options
	bp   logic.Blueprint
	// g is the explored state graph when the runtime blueprint is
	// graph-backed (every Explorable formalism: FSM, ERE, ptLTL). With g
	// set, a monitor's logic state is the uint32 word Mon.state and a step
	// is one array read — no interface values anywhere in the store. When
	// g is nil (CFG monitors with unbounded state), per-monitor boxed
	// states live in the boxState side slice instead.
	g *logic.Graph
	// botWord/botState is Δ(⊥): the state of the empty-domain slice, in
	// whichever representation the blueprint uses. It only advances on
	// propositional events (D(e) = ∅) and is the progenitor state for
	// instances created from ⊥.
	botWord  uint32
	botState logic.State

	// intern is the θ-table: every θ the engine touches resolves to one
	// slab slot, whose handle is the instance's identity (monitor records
	// store it) and whose payload is everything kept per θ — Δ, the
	// processed stamp, the leaf chain, the tombstone bits. The sweep unmaps
	// a θ once an object of it is dead and it is neither in Δ nor
	// tombstoned; the slot itself stays while a monitor pins it.
	intern *param.Interner[theta]

	// mons is the monitor store: a slab arena of pointer-free Mon records
	// addressed by generation-tagged handles. Reclaimed monitors are a
	// free-list push; creations pop the free list — the collected garbage
	// literally becomes the allocator (and with it, PR 4's pooled-monitor
	// free list generalizes to the whole store).
	mons arena.Pool[Mon]
	// boxState holds the per-monitor boxed logic state for non-graph
	// blueprints, indexed by monitor slot; unused (empty) in graph mode.
	boxState []logic.State

	// leaves holds the index: the leaf records hanging off the θ-records
	// (theta.leaf). A monitor of domain R sits in the leaf for R under
	// θ|K for every K in its domain's key list.
	leaves index.Leaves
	// domains is every instance domain with its registry and key list,
	// descending popcount, then mask.
	domains []domain
	// joins[sym] lists the domains R (⊉ D(e)) that a CreateEnable join
	// must consider for events with symbol sym, with the overlap O.
	joins [][]joinPlan

	// seen records, per object that has appeared in an event, which event
	// parameter-domains it appeared under. With theta.flags' thetaSeenEvent
	// it backs the fresh-object creation guard; both are swept periodically.
	seen      map[uint64]seenRec
	evDomains []param.Set // distinct event parameter sets, for seenRec bits
	domBit    []uint16    // per symbol, bit for its domain in seenRec.doms
	sinceSwep int

	// allParams is the maximal instance domain (the union of every event's
	// parameter set — by union closure the unique maximal element of
	// domains); profGuards/prof are Options.ProfileGuards/Profile.
	allParams  param.Set
	profGuards []bool
	prof       *CreationProfile

	stats Stats

	// met is Options.Metrics; pub/pubRecycled/pubReused/pubArena are the
	// values already published into it, so each publish Adds only the
	// delta accumulated since the last one.
	met                    *metrics.EngineSeries
	pub                    Stats
	pubRecycled, pubReused uint64
	pubArena               arena.Stats

	// recycled counts monitors returned to the arena free list.
	recycled uint64

	// scratch, reused across events: the pending insertions, the leaf-visit
	// buffer for the closure-free dispatch loops, and the θ handles of a
	// whole-table walk.
	pendAdd  []arena.Handle
	visitBuf []index.Handle
	thBuf    []arena.Handle
}

// domain is one instance domain R with the two things kept per domain.
type domain struct {
	R param.Set
	// keys are the key domains K under which a monitor of domain R is
	// indexed (leaf R of the chain of θ|K): the event domains inside R, for
	// dispatch, and the non-empty overlaps of R's join plans, for the
	// creation joins. Fixed in New.
	keys []param.Set
	// all holds every monitor of domain exactly R — the leaf for R under
	// the empty key, read by the joins with empty overlap.
	all index.Set
}

// joinPlan is one creation join of an event symbol: progenitors of domain R
// agreeing with the event on the overlap O; all is R's registry set.
type joinPlan struct {
	R, O param.Set
	all  *index.Set
}

// seenRec tracks one object's event history shape: which event domains it
// has been bound under. Stored by value: the seen map never allocates per
// record.
type seenRec struct {
	ref  heap.Ref
	doms uint16
}

// New builds an engine for a spec; Analyze is run if it has not been.
func New(spec *Spec, opts Options) (*Engine, error) {
	an, err := spec.Analysis()
	if err != nil {
		return nil, err
	}
	if opts.SweepInterval <= 0 {
		// The sweep is the only thing that discovers a dead key, so in a
		// churn stream the θ-table, the leaves and the flagged monitors
		// they still hold grow with the period while the sweep's cost per
		// event does not (the table it scans grows with it too).
		opts.SweepInterval = 1 << 12
	}
	if err := opts.Check(spec, 1); err != nil {
		return nil, err
	}
	if opts.Profile != nil {
		if err := opts.Profile.bind(spec); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		spec:       spec,
		an:         an,
		opts:       opts,
		bp:         spec.RuntimeBlueprint(),
		intern:     param.NewInterner[theta](),
		seen:       map[uint64]seenRec{},
		met:        opts.Metrics,
		profGuards: opts.ProfileGuards,
		prof:       opts.Profile,
	}
	for _, ev := range spec.Events {
		e.allParams = e.allParams.Union(ev.Params)
	}
	if gb, ok := e.bp.(logic.GraphBlueprint); ok {
		e.g = gb.G
	}
	if poolCheck {
		e.mons.SetChecks(poisonMon, verifyMon)
		e.intern.SetChecks(poisonTheta, verifyTheta)
		e.leaves.SetChecks(poisonLeaf, verifyLeaf)
	}
	e.domBit = make([]uint16, len(spec.Events))
	for sym, ev := range spec.Events {
		found := -1
		for i, d := range e.evDomains {
			if d == ev.Params {
				found = i
				break
			}
		}
		if found < 0 {
			found = len(e.evDomains)
			e.evDomains = append(e.evDomains, ev.Params)
		}
		e.domBit[sym] = 1 << uint(found)
	}
	if e.g != nil {
		e.botWord = 0 // the graph's start state is state 0 by construction
	} else {
		e.botState = e.bp.Start()
	}

	// Instance domains: the closure of the event parameter sets under
	// union. A monitor is indexed under every event domain inside its own.
	var doms []param.Set
	for _, d := range e.evDomains {
		if !d.Empty() {
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
	// Descending popcount (largest progenitors first), then ascending mask.
	slices.SortFunc(doms, func(a, b param.Set) int {
		return cmp.Or(b.Count()-a.Count(), int(a)-int(b))
	})
	e.domains = make([]domain, len(doms))
	for i, R := range doms {
		d := &e.domains[i]
		d.R = R
		for _, K := range e.evDomains {
			if !K.Empty() && K.SubsetOf(R) {
				d.keys = append(d.keys, K)
			}
		}
	}

	// Join plans: for event e and domain R ⊉ D(e), the overlap O = R∩D(e).
	// Under CreateEnable a join is statically skipped when no nonempty
	// enable parameter set fits inside R (an exactly-R progenitor's
	// paramsSeen is a nonempty subset of R).
	e.joins = make([][]joinPlan, len(spec.Events))
	for sym, ev := range spec.Events {
		for i := range e.domains {
			d := &e.domains[i]
			R := d.R
			if ev.Params.SubsetOf(R) {
				continue // instances ⊒ θ: handled by dispatch
			}
			if opts.Creation == CreateEnable {
				ok := false
				for y := range an.EnableParams[sym] {
					if !y.Empty() && y.SubsetOf(R) {
						ok = true
						break
					}
				}
				if !ok {
					continue
				}
			}
			O := R.Inter(ev.Params)
			e.joins[sym] = append(e.joins[sym], joinPlan{R: R, O: O, all: &d.all})
			if !O.Empty() && !slices.Contains(d.keys, O) {
				d.keys = append(d.keys, O)
			}
		}
	}
	return e, nil
}

// Spec returns the engine's specification.
func (e *Engine) Spec() *Spec { return e.spec }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// PoolStats returns the monitor free-list counters: how many collected
// monitors were recycled into the arena free list and how many creations
// were served from it (tests, diagnostics).
func (e *Engine) PoolStats() (recycled, reused uint64) { return e.recycled, e.mons.Reused() }

// ArenaStats returns the monitor-store slab arena's occupancy snapshot.
func (e *Engine) ArenaStats() arena.Stats { return e.mons.Stats() }

// InstanceArenaStats returns the interner slab arena's occupancy snapshot.
func (e *Engine) InstanceArenaStats() arena.Stats { return e.intern.Stats() }

// InternedInstances returns the θ-table size (tests, diagnostics): the event
// instances and monitor instances the engine has met, and the key tuples
// monitors are indexed under — ⟨c⟩ of a ⟨c,i⟩ monitor counts even if no
// event ever carried it.
func (e *Engine) InternedInstances() int { return e.intern.Len() }

// instOf resolves a monitor record's parameter instance: a transient view
// into its θ-record, for key restriction and liveness checks.
func (e *Engine) instOf(m *Mon) *param.Instance { return &e.intern.At(m.instH).Inst }

// claimed reports whether θ takes no creation on the current event, marking
// it processed if so: it was processed already, or it is in Δ (materialized
// earlier, possibly flagged since — never rebuilt from a less informative
// slice), or tombstoned (its suppressed monitor's Δ entry would have blocked
// the rebuild the same way).
func (e *Engine) claimed(t *theta) bool {
	if t.stamp != e.stats.Events {
		if t.mon == arena.Nil && t.flags&thetaAvoided == 0 {
			return false
		}
		t.stamp = e.stats.Events
	}
	return true
}

// Dispatch processes one parametric event (the body of Figure 5's loop,
// with the θ-table and its leaves playing the role of Δ and Θ):
//
//  1. one θ-table lookup canonicalizes θ; the monitors more informative
//     than θ are the members of θ's leaves, and each is stepped;
//  2. creation joins: per join plan one lookup of θ restricted to the
//     overlap, whose leaf for the plan's domain lists the progenitors
//     (CreateFull scans the θ-table instead);
//  3. θ itself from ⊥, if nothing claimed it;
//  4. new monitors enter their registry and the leaves of their keys;
//  5. θ's objects are marked seen, and every SweepInterval events the
//     sweep runs.
func (e *Engine) Dispatch(sym int, theta param.Instance) {
	e.stats.Events++
	if e.met != nil && e.stats.Events&(publishInterval-1) == 0 {
		e.publishMetrics()
	}
	e.pendAdd = e.pendAdd[:0]
	evParams := e.spec.Events[sym].Params

	if evParams.Empty() {
		// Propositional event: every instance's slice includes it, ⊥'s
		// too. The same deterministic rule as the indexed path applies
		// (observeDeaths): a parameter death is observed before stepping,
		// and the monitor is skipped only if that flags it. Δ keeps
		// unflagged monitors even after a parameter death (see sweep), so
		// membership here never depends on sweep timing.
		ths := e.thBuf[:0]
		for th, s := range e.intern.All() {
			if h := s.Data.mon; h != arena.Nil && e.mons.At(h).flags&monFlagged == 0 {
				ths = append(ths, th)
			}
		}
		sort.Slice(ths, func(i, j int) bool { return e.thetaLess(ths[i], ths[j]) })
		for _, th := range ths {
			h := e.intern.At(th).Data.mon
			if m := e.mons.At(h); e.observeDeaths(h, m) {
				e.step(h, m, sym)
			}
		}
		e.thBuf = ths[:0]
		if e.g != nil {
			e.botWord = uint32(e.g.Next[e.botWord][sym])
		} else {
			e.botState = e.botState.Step(sym)
		}
		return
	}

	// Canonicalize θ: the one per-θ table lookup of the event. Everything
	// below reaches θ's record, and the records of the monitors it meets,
	// through handles.
	th := e.intern.Intern(theta)
	ts := e.intern.At(th)
	tp := &ts.Inst

	// 1. Step the members of θ's leaves. Closure-free walk: AppendLive
	// compacts the leaves and fills the reused scratch buffer; the flagged
	// re-check below is the visit-time Collectable check.
	buf := e.leaves.AppendLive(e, ts.Data.leaf, e.visitBuf[:0])
	for _, h := range buf {
		m := e.mons.At(h)
		if m.flags&monFlagged != 0 || !e.observeDeaths(h, m) {
			continue
		}
		e.step(h, m, sym)
		e.intern.At(m.instH).Data.stamp = e.stats.Events
	}
	e.visitBuf = buf[:0]

	// 2. Creation joins: combine θ with compatible existing instances of
	// other domains (largest first, so a new instance is built from the
	// most informative progenitor).
	switch e.opts.Creation {
	case CreateFull:
		// Exact Figure 5 semantics: scan Θ for all compatible instances.
		// Joins must read pre-event states; monitors in the dispatch set
		// were already stepped, but those are ⊒ θ and their lub with θ is
		// themselves (already processed), so progenitors here are exactly
		// the un-stepped ones. Candidates are visited most informative
		// first: because Θ is lub-closed under CreateFull, the first
		// candidate producing a given lub is max{θ'' ∈ Θ | θ'' ⊑ θ'}.
		// Under enforced avoidance tombstoned instances take part in the
		// scan as ghost progenitors, claiming (and re-tombstoning) exactly
		// the lubs their suppressed monitors would have, at their place in
		// the informativeness order first-claim-wins relies on.
		cands := e.thBuf[:0]
		for ch, s := range e.intern.All() {
			t := &s.Data
			if t.stamp == e.stats.Events || !s.Inst.Compatible(*tp) {
				continue
			}
			if t.flags&thetaAvoided != 0 || t.mon != arena.Nil && e.mons.At(t.mon).flags&monFlagged == 0 {
				cands = append(cands, ch)
			}
		}
		sort.Slice(cands, func(i, j int) bool { return e.moreInformative(cands[i], cands[j]) })
		for _, ch := range cands {
			if h := e.intern.At(ch).Data.mon; h != arena.Nil {
				e.tryCreate(sym, tp, h)
			} else {
				e.tryAvoidLub(tp, ch)
			}
		}
		e.thBuf = cands[:0]
	case CreateEnable:
		for _, jp := range e.joins[sym] {
			leaf := jp.all
			if !jp.O.Empty() {
				kh, ok := e.intern.Get(tp.Restrict(jp.O).Key())
				if !ok {
					continue
				}
				if leaf = e.leaves.Find(e.intern.At(kh).Data.leaf, jp.R); leaf == nil {
					continue
				}
			}
			buf := leaf.AppendLive(e, e.visitBuf[:0])
			for _, h := range buf {
				e.tryCreate(sym, tp, h)
			}
			e.visitBuf = buf[:0]
		}
	}

	// 3. θ itself, from ⊥, if nothing else materialized it. A tombstoned
	// instance blocks re-creation the same way its real monitor's Δ entry
	// would (the suppressed slice is not the fresh-from-⊥ slice).
	if !e.claimed(&ts.Data) && (e.opts.Creation == CreateFull || e.an.Creation[sym] && e.priorEventsOK(tp, 0)) {
		e.createFromBot(sym, th)
	}

	// 4. Insert the new monitors into the index.
	for _, h := range e.pendAdd {
		e.insert(h)
	}

	// 5. Mark θ's objects as seen and sweep periodically.
	for pm := evParams; pm != 0; pm = pm.Rest() {
		v := tp.Value(pm.First())
		rec, ok := e.seen[v.ID()]
		if !ok {
			rec.ref = v
		}
		rec.doms |= e.domBit[sym]
		e.seen[v.ID()] = rec
	}
	if evParams.Count() > 1 {
		ts.Data.flags |= thetaSeenEvent
	}
	e.sinceSwep++
	if e.sinceSwep >= e.opts.SweepInterval {
		e.sinceSwep = 0
		e.timedSweep()
	}
}

// createFromBot materializes θ from the empty-domain progenitor ⊥, unless
// the creation-avoidance guard fires first.
func (e *Engine) createFromBot(sym int, th arena.Handle) {
	if e.opts.Avoid != AvoidOff && e.guardHit(sym, e.intern.At(th).Inst.Mask(), e.botWord) {
		e.stats.Avoided++
		if e.opts.Avoid == AvoidEnforce {
			e.recordAvoided(th)
			return
		}
	}
	e.create(sym, th, e.botWord, e.botState, 0)
}

// timedSweep runs a sweep pass, recording its duration in the per-policy
// collection-latency histogram and settling the published counters. Both
// extras are sweep-frequency cold-path work; the bare sweep stays
// untouched for engines without telemetry.
func (e *Engine) timedSweep() {
	if e.met == nil {
		e.sweep()
		return
	}
	start := time.Now()
	e.sweep()
	e.met.SweepSeconds.Observe(time.Since(start).Seconds())
	e.met.Sweeps.Inc()
	e.publishMetrics()
}

// publishMetrics adds the counter movement since the last publication into
// the shared atomic series. Allocation-free; called only at amortized
// points (see Options.Metrics).
func (e *Engine) publishMetrics() {
	m, s, p := e.met, &e.stats, &e.pub
	m.Events.Add(s.Events - p.Events)
	m.Steps.Add(s.Steps - p.Steps)
	m.Created.Add(s.Created - p.Created)
	m.Flagged.Add(s.Flagged - p.Flagged)
	m.Collected.Add(s.Collected - p.Collected)
	m.Verdicts.Add(s.GoalVerdicts - p.GoalVerdicts)
	m.Live.Add(s.Live - p.Live)
	m.PeakLive.SetMax(s.PeakLive)
	reused := e.mons.Reused()
	m.Recycled.Add(e.recycled - e.pubRecycled)
	m.Reused.Add(reused - e.pubReused)
	ast := e.mons.Stats()
	m.ArenaSlabs.Add(int64(ast.Slabs) - int64(e.pubArena.Slabs))
	m.ArenaCap.Add(int64(ast.Cap) - int64(e.pubArena.Cap))
	m.ArenaFree.Add(int64(ast.Free) - int64(e.pubArena.Free))
	e.pub = *s
	e.pubRecycled, e.pubReused = e.recycled, reused
	e.pubArena = ast
}

// --- index.Resolver ---------------------------------------------------
//
// The leaves and registries hold generation-tagged handles, not pointers;
// the engine is their Resolver, mapping a handle back to monitor behavior
// through the slab arena. Every dereference is generation-checked, so a
// container that somehow held a stale handle fails loudly at the point of
// misuse instead of silently touching a recycled record.

var _ index.Resolver = (*Engine)(nil)

// NotifyParamDeath implements index.Resolver: re-evaluate ALIVENESS under
// the engine's GC policy (Figure 7A: monitors below a dead mapping are
// notified and decide for themselves).
func (e *Engine) NotifyParamDeath(h index.Handle) {
	m := e.mons.At(h)
	if m.flags&monFlagged != 0 {
		return
	}
	switch e.opts.GC {
	case GCNone:
	case GCAllDead:
		if e.instOf(m).AliveMask().Empty() {
			e.flagMon(m)
		}
	case GCCoenable:
		e.checkAliveness(m)
	}
}

// Collectable implements index.Resolver.
func (e *Engine) Collectable(h index.Handle) bool {
	return e.mons.At(h).flags&monFlagged != 0
}

// Retain implements index.Resolver.
func (e *Engine) Retain(h index.Handle) { e.mons.At(h).refs++ }

// Release implements index.Resolver.
func (e *Engine) Release(h index.Handle) {
	m := e.mons.At(h)
	m.refs--
	if m.refs <= 0 && m.flags&monCollected == 0 {
		m.flags |= monCollected
		e.stats.Collected++
		e.stats.Live--
		if !e.inDelta(h, m) {
			e.recycle(h, m)
		}
	}
}

// inDelta reports whether Δ still maps the monitor's instance to it.
func (e *Engine) inDelta(h arena.Handle, m *Mon) bool {
	return e.intern.At(m.instH).Data.mon == h
}

func (e *Engine) flagMon(m *Mon) {
	if m.flags&monFlagged == 0 {
		m.flags |= monFlagged
		e.stats.Flagged++
	}
}

// observeDeaths delivers parameter-death notifications for a monitor at a
// deterministic point — the moment an event or a creation join reaches it —
// rather than whenever a sweep happens to discover the death (Figure 7's
// notification, hoisted onto the access path). Verdict
// semantics are unchanged: a monitor is only flagged when its ALIVENESS
// formula is false, and by Theorem 1 such a monitor can never reach a goal
// verdict. What eagerness buys is that step and creation decisions become a
// pure function of the per-slice event/death sequence, independent of the
// sweep interval — the property that lets the sharded
// runtime (internal/shard) compare its merged counters exactly against the
// sequential engine. Reports whether the monitor may be stepped.
func (e *Engine) observeDeaths(h arena.Handle, m *Mon) bool {
	if m.flags&monFlagged != 0 {
		return false
	}
	if !e.instOf(m).AllAlive() {
		e.NotifyParamDeath(h)
		return m.flags&monFlagged == 0
	}
	return true
}

// tryCreate materializes θ' = progenitor ⊔ θ if permitted.
func (e *Engine) tryCreate(sym int, theta *param.Instance, progH arena.Handle) {
	prog := e.mons.At(progH)
	if prog.flags&monFlagged != 0 {
		return
	}
	progInst := e.instOf(prog)
	if e.opts.Creation == CreateEnable && !progInst.AllAlive() {
		// The death of any bound object ends the progenitor role: in
		// JavaMOP/RV a progenitor is only reachable through weak keys
		// (see sweep). Observing the death here, instead of at the
		// sweep that would compact the registry, makes the creation
		// decision deterministic. CreateFull is exempt — it is the exact
		// Figure 5 oracle, and Figure 5 has no notion of object death.
		e.NotifyParamDeath(progH)
		return
	}
	lub, ok := progInst.Lub(*theta)
	if !ok {
		return
	}
	// Membership checks go through Get, not Intern: a lub the guards
	// below reject must leave no intern-table entry behind (its objects
	// may live arbitrarily long), so canonicalization happens only once
	// creation is certain.
	lh, known := e.intern.Get(lub.Key())
	if known && e.claimed(&e.intern.At(lh).Data) {
		return
	}
	if e.opts.Creation == CreateEnable {
		// Enable check: the progenitor's slice (the candidate's prefix)
		// must be a viable goal-trace prefix for this event.
		if !e.an.EnableParams[sym][prog.paramsSeen] {
			return
		}
		if !e.priorEventsOK(&lub, progInst.Mask()) {
			return
		}
	}
	if e.opts.Avoid != AvoidOff && e.guardHit(sym, lub.Mask(), prog.state) {
		e.stats.Avoided++
		if e.opts.Avoid == AvoidEnforce {
			if !known {
				lh = e.intern.Intern(lub)
			}
			e.recordAvoided(lh)
			return
		}
	}
	if !known {
		lh = e.intern.Intern(lub)
	}
	var baseBox logic.State
	if e.g == nil {
		baseBox = e.boxState[progH.Index()]
	}
	e.create(sym, lh, prog.state, baseBox, prog.paramsSeen)
}

// priorEventsOK is the fresh-object creation guard of CreateEnable: θ' may
// be built from a progenitor covering progDom ⊆ dom(θ') only when no prior
// event belongs to θ”s slice without being in the progenitor's. A prior
// event is in θ”s slice when its instance is ⊑ θ', which requires its
// parameter domain to fit inside dom(θ') and its objects to match θ”s; a
// prior event under a singleton domain {x} always matches (same object),
// and for multi-parameter domains the exact sub-instance θ'|D is looked up
// in the θ-table (thetaSeenEvent). Skipping creation is sound: either the
// conflicting prior event materialized a progenitor the joins already consulted (and the lub
// closure loss means no instance carries the merged slice), or it was
// itself skipped as unable to reach G (enable theorem), making θ”s true
// slice unviable. The price is completeness on object-recombination
// interleavings, which JavaMOP's timestamp scheme trades away as well (see
// DESIGN.md).
func (e *Engine) priorEventsOK(lub *param.Instance, progDom param.Set) bool {
	target := lub.Mask()
	for xm := target.Diff(progDom); xm != 0; xm = xm.Rest() {
		x := xm.First()
		rec, ok := e.seen[lub.Value(x).ID()]
		if !ok {
			continue
		}
		for bi, d := range e.evDomains {
			if rec.doms&(1<<uint(bi)) == 0 || !d.SubsetOf(target) {
				continue
			}
			if d == param.SetOf(x) {
				return false
			}
			if h, ok := e.intern.Get(lub.Restrict(d).Key()); ok && e.intern.At(h).Data.flags&thetaSeenEvent != 0 {
				return false
			}
		}
	}
	return true
}

// create builds a monitor for θ' from a progenitor state, steps it with the
// current event, and queues it for insertion. Records come from the arena:
// slots reclaimed by the coenable GC are recycled into the next creations.
// baseWord carries the progenitor state in graph mode, baseBox in box mode.
func (e *Engine) create(sym int, instH arena.Handle, baseWord uint32, baseBox logic.State, seen param.Set) {
	h, m := e.mons.Alloc()
	e.intern.Pin(instH)
	m.instH = instH
	m.state = baseWord
	m.paramsSeen = seen
	m.birthSym = int16(sym)
	if e.g == nil {
		e.setBox(h.Index(), baseBox)
	}
	if e.prof != nil {
		e.prof.Created[sym]++
	}
	e.stats.Created++
	e.stats.Live++
	if e.stats.Live > e.stats.PeakLive {
		e.stats.PeakLive = e.stats.Live
	}
	t := &e.intern.At(instH).Data
	t.mon, t.stamp = h, e.stats.Events
	e.step(h, m, sym)
	e.pendAdd = append(e.pendAdd, h)
}

// setBox stores a monitor's boxed state (non-graph blueprints only).
func (e *Engine) setBox(idx uint32, st logic.State) {
	for int(idx) >= len(e.boxState) {
		e.boxState = append(e.boxState, nil)
	}
	e.boxState[idx] = st
}

// recycle pushes a fully dead monitor — collected (no container reference)
// and out of Δ — back to the arena free list. Its slot generation advances,
// so every copy of the handle is stale from here on; under race/testing
// builds the record is additionally poisoned (see pool.go), so a straggling
// reference that dodged the generation check still fails loudly.
func (e *Engine) recycle(h arena.Handle, m *Mon) {
	if m.refs > 0 || m.flags&monCollected == 0 || e.inDelta(h, m) {
		panic("monitor: recycling a monitor that is still referenced")
	}
	instH := m.instH
	if e.g == nil && int(h.Index()) < len(e.boxState) {
		e.boxState[h.Index()] = nil
	}
	e.mons.Free(h)
	e.intern.Unpin(instH)
	e.recycled++
}

// step advances one monitor with an event, reports goal verdicts and
// applies monitor termination.
func (e *Engine) step(h arena.Handle, m *Mon, sym int) {
	var cat logic.Category
	var st logic.State
	if e.g != nil {
		// Graph mode: a step is one array read on the state word; the
		// verdict category another. No interface values are touched unless
		// a verdict or the dead-state check needs a boxed state.
		m.state = uint32(e.g.Next[m.state][sym])
		cat = e.g.Cat[m.state]
	} else {
		idx := h.Index()
		st = e.boxState[idx].Step(sym)
		e.boxState[idx] = st
		cat = st.Category()
	}
	m.lastSym = int32(sym)
	m.paramsSeen = m.paramsSeen.Union(e.spec.Events[sym].Params)
	e.stats.Steps++
	if e.prof != nil {
		// Creation-site profiling: the first step is the birth step; any
		// later one marks the site's monitors as participating in slices
		// longer than their creation event.
		if m.flags&monStepped == 0 {
			m.flags |= monStepped
		} else if m.flags&monRestepped == 0 {
			m.flags |= monRestepped
			e.prof.Restepped[m.birthSym]++
		}
	}
	if e.spec.goalSet[cat] {
		e.stats.GoalVerdicts++
		if e.prof != nil && m.flags&monGoaled == 0 {
			m.flags |= monGoaled
			e.prof.ReachedGoal[m.birthSym]++
		}
		if e.opts.OnVerdict != nil {
			e.opts.OnVerdict(Verdict{Spec: e.spec, Sym: sym, Cat: cat, Inst: *e.instOf(m)})
		}
	}
	if e.opts.GC == GCCoenable {
		if e.g != nil {
			st = e.g.State(int(m.state)) // preboxed: no allocation
		}
		if e.an.Dead(st) {
			e.flagMon(m)
			return
		}
		if e.an.HasCoenable && len(e.an.CoenParams[sym]) == 0 {
			// No suffix can reach G after this event (∅-only coenable
			// family): terminate after the handler has run (§3).
			e.flagMon(m)
		}
	}
}

// checkAliveness evaluates the ALIVENESS formula for the monitor's last
// event (Figure 7 / §4.2.2).
func (e *Engine) checkAliveness(m *Mon) {
	inst := e.instOf(m)
	if !e.an.HasCoenable {
		// Fall back to the all-dead condition.
		if inst.AliveMask().Empty() {
			e.flagMon(m)
		}
		return
	}
	disjuncts := e.an.CoenParams[m.lastSym]
	if !alive(disjuncts, *inst) {
		e.flagMon(m)
	}
}

func alive(disjuncts []param.Set, inst param.Instance) bool {
	bound := inst.Mask()
	aliveMask := inst.AliveMask()
	deadBound := bound.Diff(aliveMask)
	for _, s := range disjuncts {
		if s.Inter(deadBound).Empty() {
			return true
		}
	}
	return false
}

// insert places a monitor into its domain's registry and, for every key
// domain K of its domain, into the leaf under θ|K.
func (e *Engine) insert(h arena.Handle) {
	m := e.mons.At(h)
	inst := e.instOf(m)
	d := e.domainOf(inst.Mask())
	d.all.Add(e, h)
	for _, K := range d.keys {
		kh := m.instH // θ|R is θ itself
		if K != d.R {
			kh = e.intern.Intern(inst.Restrict(K))
		}
		e.leaves.Insert(&e.intern.At(kh).Data.leaf, d.R).Add(e, h)
	}
}

// domainOf returns the record of an instance domain (a handful at most).
func (e *Engine) domainOf(R param.Set) *domain {
	for i := range e.domains {
		if e.domains[i].R == R {
			return &e.domains[i]
		}
	}
	panic(fmt.Sprintf("monitor: %v is not an instance domain", R))
}

// sweep applies the physical weak-reference semantics the paper's systems
// get from the JVM: bookkeeping entries whose objects died are dropped. It
// is the engine's only death discovery: one pass over the θ-table — every
// rule below concerns a θ with a dead bound object, so the rest are skipped
// — then the fresh-object records and the registries. Per θ, in order:
//
//   - θ's leaves are detached (Figure 7): the monitors indexed under the
//     dead key are notified, then released, and the leaf records recycled.
//     This comes first, so a θ-record is never unmapped or recycled with a
//     leaf attached.
//   - Δ(θ) of a *flagged* monitor goes — such an instance can never recur
//     in an event, so no wrong-slice resurrection is possible, and the flag
//     means nothing will step it again. Unflagged monitors stay even with a
//     dead parameter (they remain reachable through their live keys,
//     and keeping them makes propositional dispatch independent of
//     sweep timing). Flagged monitors whose objects all live stay as
//     tombstones: their instances can recur, and rebuilding them from a
//     progenitor would resurrect them with a wrong slice.
//   - Δ(θ) of a *collected* monitor goes too, flagged or not: collected
//     means no container references the monitor, and the dead object's
//     identity can never recur in an event, so the entry is unreachable —
//     except under CreateFull, whose Figure 5 oracle scans Δ for
//     progenitors and has no notion of object death. (The coenable formula
//     can keep such a monitor unflagged forever — a disjunct over unbound
//     parameters stays satisfiable — which without this rule pinned its
//     arena slot and θ-record unboundedly.) A monitor that is now both
//     collected and out of Δ is recycled into the arena free list.
//   - Avoided-creation tombstones mirror their would-be monitors' exit
//     from Δ, so enforce-mode blocking stays in lockstep with the unguarded
//     engine: under coenable a doomed monitor is flagged at its birth step,
//     so its Δ entry goes at the first sweep after any bound object dies;
//     under alldead it is flagged (and its entry goes) once every object is
//     dead; under none Δ entries never leave. Dropped or kept, the instance
//     cannot be wrongly rebuilt — a recurrence needs every object alive —
//     so this only mirrors bookkeeping lifetime.
//   - The multi-parameter-event mark of the fresh-object guard goes.
//   - θ is unmapped once it is neither in Δ nor tombstoned; its slot is
//     recycled when no monitor pins it (see param.Interner).
//   - Fresh-object guard records for dead objects go as well.
//   - Domain registries release members with dead bound objects: in
//     JavaMOP/RV a progenitor is only reachable through weak keys, so
//     the death of any of its objects ends its progenitor role.
func (e *Engine) sweep() {
	for th, s := range e.intern.All() {
		if s.Inst.AllAlive() {
			continue
		}
		t := &s.Data
		e.leaves.Detach(e, &t.leaf)
		if h := t.mon; h != arena.Nil {
			m := e.mons.At(h)
			// The keys that index θ's monitor may come later in this pass;
			// notify it now, so the rule below sees its settled flag.
			e.NotifyParamDeath(h)
			if m.flags&monFlagged != 0 || m.flags&monCollected != 0 && e.opts.Creation != CreateFull {
				t.mon = arena.Nil
				if m.flags&monCollected != 0 {
					e.recycle(h, m)
				}
			}
		}
		if e.opts.GC == GCCoenable || e.opts.GC == GCAllDead && s.Inst.AliveMask().Empty() {
			t.flags &^= thetaAvoided
		}
		t.flags &^= thetaSeenEvent
		if t.mon == arena.Nil && t.flags&thetaAvoided == 0 {
			e.intern.Unmap(th)
		}
	}
	for id, rec := range e.seen {
		if !rec.ref.Alive() {
			delete(e.seen, id)
		}
	}
	for i := range e.domains {
		e.domains[i].all.CompactWith(e, e.deadParam)
	}
}

// deadParam reports a monitor with a dead bound parameter object (domain
// registries drop such members; see sweep).
func (e *Engine) deadParam(h index.Handle) bool {
	return !e.instOf(e.mons.At(h)).AllAlive()
}

// Flush performs a full compaction pass over every structure; used at the
// end of a monitored run so the Figure 10 counters settle: the leaves of
// every θ whose objects all live are compacted and the emptied ones
// recycled, then the registries, then a sweep.
//
// Two passes are required for the counters to converge: the first delivers
// every pending death notification (the sweep detaches the leaves of dead
// keys, notifying the monitors below, and notifies Δ stragglers), but a
// monitor can become flagged there, after the containers under its live
// keys were already compacted. The second pass re-compacts with the settled
// flag state, releasing every flagged monitor from every container.
func (e *Engine) Flush() {
	for pass := 0; pass < 2; pass++ {
		for _, s := range e.intern.All() {
			if s.Data.leaf != arena.Nil && s.Inst.AllAlive() {
				e.leaves.Compact(e, &s.Data.leaf)
			}
		}
		for i := range e.domains {
			e.domains[i].all.Compact(e)
		}
		e.timedSweep()
	}
}

// Monitors returns the live (unflagged, uncollected) monitor instances,
// for tests and diagnostics.
func (e *Engine) Monitors() []param.Instance {
	var out []param.Instance
	for _, s := range e.intern.All() {
		if h := s.Data.mon; h != arena.Nil && e.mons.At(h).flags&(monFlagged|monCollected) == 0 {
			out = append(out, s.Inst)
		}
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key(), out[j].Key()) })
	return out
}

// State returns the current base state for θ, or nil if no monitor exists.
func (e *Engine) State(inst param.Instance) logic.State {
	th, ok := e.intern.Get(inst.Key())
	if !ok {
		return nil
	}
	h := e.intern.At(th).Data.mon
	if h == arena.Nil {
		return nil
	}
	m := e.mons.At(h)
	if m.flags&monFlagged != 0 {
		return nil
	}
	if e.g != nil {
		return e.g.State(int(m.state))
	}
	return e.boxState[h.Index()]
}

// thetaLess orders θ handles by instance key (mask, then IDs), the
// deterministic order every backend shares.
func (e *Engine) thetaLess(a, b arena.Handle) bool {
	return keyLess(e.intern.At(a).Inst.Key(), e.intern.At(b).Inst.Key())
}

func keyLess(a, b param.Key) bool {
	if a.Mask != b.Mask {
		return a.Mask < b.Mask
	}
	for i := 0; i < param.MaxParams; i++ {
		if a.IDs[i] != b.IDs[i] {
			return a.IDs[i] < b.IDs[i]
		}
	}
	return false
}

// moreInformative orders θ handles by descending domain size, then by
// instance key: the order in which the Figure-5 scan visits its candidate
// progenitors, real and tombstoned alike.
func (e *Engine) moreInformative(a, b arena.Handle) bool {
	ac, bc := e.intern.At(a).Inst.Mask().Count(), e.intern.At(b).Inst.Mask().Count()
	if ac != bc {
		return ac > bc
	}
	return e.thetaLess(a, b)
}
