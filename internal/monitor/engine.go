package monitor

import (
	"fmt"
	"math"
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

// Verdict is one goal-category report delivered to the handler: the event
// sym that took the slice of the instance θ into category Cat. Key names
// θ's objects by ID, and every runtime fills it. Inst is θ over the
// caller's refs, set only by a runtime that holds them — an engine fed by
// Dispatch or DispatchHeld, the remote and cluster fronts; an engine fed
// by DispatchIDs names its objects in Key alone and leaves Inst ⊥.
type Verdict struct {
	Spec *Spec
	Sym  int
	Cat  logic.Category
	Inst param.Instance
	Key  param.Key
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
	// SweepInterval is the longest run of events without a sweep, a lazy
	// engine's one death-discovery pass: it finds the θ-records with a dead
	// object, which then lose their leaves, Δ entry, tombstone and table
	// mapping. 0 selects the default, max(4096, θ-table size after the last
	// sweep), so a large steady table is visited at most once per event.
	// Independently of the period, a sweep falls due once as many θ-records
	// have been added since the last one as that sweep left in the table
	// (at least 256 in all; see Engine.sweep). Only a lazy engine, one fed
	// refs through Dispatch, sweeps: an engine whose deaths are positioned
	// (DispatchIDs, DispatchHeld and FreeIDs) is told each at its free and
	// ignores the interval.
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
// run over lanes pivot lanes — shards (a parallel trace replay's too),
// cluster slots; 1 is a single sequential engine. Every boundary that builds
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

// defaultSweepInterval is the shortest period of the default sweep schedule
// (Options.SweepInterval 0), and minSweepGoal the smallest θ-table size a
// sweep's adds goal aims at: the pacer's floor, so a small table is not
// swept after every few adds.
const (
	defaultSweepInterval = 1 << 12
	minSweepGoal         = 256
)

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
	// monInReg marks a monitor its domain registry still holds a container
	// reference on. A positioned engine releases that reference where the
	// monitor is flagged or an object of it dies, and leaves the entry
	// behind; the registry drops such entries as it meets them (registry).
	monInReg
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
// members are monitor handles) — and the object table (objs), whose handles
// the θ-records bind. The object table is the only holder of the monitored
// program's refs and the θ-table the only structure keyed by its objects.
// Deaths are found two ways and collected one way. A lazy engine, fed refs
// by Dispatch, finds them in its sweep, a pass over the whole θ-table that
// a pacer schedules. A positioned engine, fed by DispatchIDs or
// DispatchHeld, is told each death by FreeIDs, and the object's record
// lists the θ-records that bind it. Either way the θ-records found go to
// settle, the one collector, which also runs at the end of every event.
// Every whole-structure pass — the propositional walk, the CreateFull scan,
// insert, sweep, Flush, Monitors — walks slabs and slices in index order,
// so nothing the engine computes depends on hash order or on the indexes'
// random seeds.
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
	// goal marks, per state word of g, the states whose category is a goal
	// of the spec (graph mode only).
	goal []bool
	// botWord/botState is Δ(⊥): the state of the empty-domain slice, in
	// whichever representation the blueprint uses. It only advances on
	// propositional events (D(e) = ∅) and is the progenitor state for
	// instances created from ⊥.
	botWord uint32
	// allParams is the maximal instance domain (the union of every event's
	// parameter set — by union closure the unique maximal element of
	// domains). It sits beside botWord, in that word's padding: the struct
	// stays within its allocation size class.
	allParams param.Set
	botState  logic.State

	// intern is the θ-table: every θ the engine touches resolves to one
	// slab slot, whose handle is the instance's identity (monitor records
	// store it) and whose payload is everything kept per θ — Δ, the
	// processed stamp, the leaf chain, the tombstone bits. A slot binds
	// object handles (param.Binding), so its slab holds no pointer. The
	// sweep unmaps a θ once an object of it is dead and it is neither in Δ
	// nor tombstoned; the slot itself stays while a monitor pins it.
	intern *param.Interner[theta]
	// objs is the object table: one record per parameter object met in an
	// event — its ref, its cached death, the event domains it appeared
	// under — pinned by every θ-record that binds it.
	objs objects

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
	// θ|K for every K in its domain's key list. Its block heap holds the
	// leaves' member vectors, the registries (domain.all) and the θ lists.
	leaves index.Leaves
	// domains is every instance domain with its registry and key list,
	// descending popcount, then mask.
	domains []domain
	// joins[sym] lists the domains R (⊉ D(e)) that a CreateEnable join
	// must consider for events with symbol sym, with the overlap O.
	joins [][]joinPlan

	// evDomains are the distinct event parameter sets and domBit the bit of
	// each symbol's set in object.doms: with theta.flags' thetaSeenEvent
	// they back the fresh-object creation guard.
	evDomains []param.Set
	domBit    []uint16

	// sinceSwep counts events toward the next sweep of the period schedule,
	// period is that schedule's current length, and sweepAdds the θ-records
	// still to be added before a sweep falls due early (see sweep). The
	// pacer runs only in a lazy engine: lazy is set by the first Dispatch.
	sinceSwep int
	period    int
	sweepAdds int
	lazy      bool

	// retire and flagged are the collection work settle does: the
	// θ-records a death, a sweep or an event found binding a dead object,
	// and the monitors flagged since the last settle, which leave their
	// registry there. They start in the engine's own buffers, so a small
	// engine's collection allocates nothing.
	retire, flagged       []arena.Handle
	retireBuf, flaggedBuf [8]arena.Handle
	// checked is, under race builds, what the last FreeIDs touched: the
	// θ-records it retired, then their monitors (checkFreed).
	checked []arena.Handle

	// profGuards/prof are Options.ProfileGuards/Profile.
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

	// onRelease receives the IDs of freed objects the object table let go
	// of (SetOnRelease); nil unless a server session set it.
	onRelease func(id uint64)
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

// New builds an engine for a spec; Analyze is run if it has not been.
func New(spec *Spec, opts Options) (*Engine, error) {
	an, err := spec.Analysis()
	if err != nil {
		return nil, err
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
		met:        opts.Metrics,
		profGuards: opts.ProfileGuards,
		prof:       opts.Profile,
		period:     opts.SweepInterval,
		sweepAdds:  math.MaxInt,
	}
	if e.period <= 0 {
		e.period = defaultSweepInterval
	}
	e.objs = newObjects(e.leaves.Heap(), poolCheck)
	e.retire, e.flagged, e.objs.dropq = e.retireBuf[:0], e.flaggedBuf[:0], e.objs.dropBuf[:0]
	for _, ev := range spec.Events {
		e.allParams = e.allParams.Union(ev.Params)
	}
	if gb, ok := e.bp.(logic.GraphBlueprint); ok {
		e.g = gb.G
		e.goal = make([]bool, len(e.g.Cat))
		for w, c := range e.g.Cat {
			e.goal[w] = spec.goalSet[c]
		}
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

	// Instance domains (Analysis.Domains). A monitor is indexed under every
	// event domain inside its own.
	e.domains = make([]domain, len(an.Domains))
	for i := range e.domains {
		d := &e.domains[i]
		d.R = an.Domains[i]
		for _, K := range e.evDomains {
			if !K.Empty() && K.SubsetOf(d.R) {
				d.keys = append(d.keys, K)
			}
		}
	}

	// Join plans: for event e and each domain R it joins with (Spec.Joins),
	// the overlap O = R∩D(e).
	e.joins = make([][]joinPlan, len(spec.Events))
	for sym, ev := range spec.Events {
		for i := range e.domains {
			d := &e.domains[i]
			R := d.R
			if !spec.Joins(sym, R, opts.Creation) {
				continue
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

// ObjectRecords returns the object table's size (tests, diagnostics): the
// records it holds, and how many of them name dead objects — records that
// go once no θ-record binds them. A held record is dead once its free was
// applied, whatever its ref says.
func (e *Engine) ObjectRecords() (records, dead int) {
	for h := range e.objs.recs {
		if r := &e.objs.recs[h]; r.inUse() {
			records++
			if r.dead || !r.held && !r.ref.Alive() {
				dead++
			}
		}
	}
	return records, dead
}

// bindOf resolves a monitor record's binding: a transient view into its
// θ-record, for key restriction and liveness checks.
func (e *Engine) bindOf(m *Mon) *param.Binding { return &e.intern.At(m.instH).B }

// instance resolves a binding to the instance it stands for over the
// caller's refs, for a verdict; ⊥ when the objects are named by ID, which
// the verdict's Key carries instead.
func (e *Engine) instance(b *param.Binding) param.Instance {
	for m := b.Mask; m != 0; m = m.Rest() {
		if e.objs.recs[b.H[m.First()]].ref == nil {
			return param.Instance{}
		}
	}
	return b.Instance(func(h uint32) heap.Ref { return e.objs.recs[h].ref })
}

// intern returns the θ-record of a binding, allocating one — and pinning
// the objects it binds — on first sight. In a lazy engine the add that
// meets the sweep's adds goal makes a sweep fall due at the end of the
// current Dispatch: it puts one period on the schedule's counter, which
// Dispatch takes off again when it sweeps, so the early sweep is added to
// the period schedule without shifting it (a positioned engine's goal is
// never met).
func (e *Engine) internB(b *param.Binding) arena.Handle {
	h, added := e.intern.Intern(b)
	if added {
		e.pinB(b, h)
		if e.sweepAdds--; e.sweepAdds == 0 {
			e.sinceSwep += e.period
		}
	}
	return h
}

// pinB takes a new θ-record's claims on the objects it binds and enters it
// in the θ list of each held one. Only the full creation strategy binds a
// new θ-record to an object whose death is known already (a Figure 5
// progenitor may bind one); such a record is retired at the next settle,
// as a sweep would.
func (e *Engine) pinB(b *param.Binding, th arena.Handle) {
	dead := false
	for m := b.Mask; m != 0; m = m.Rest() {
		r := &e.objs.recs[b.H[m.First()]]
		r.pins++
		dead = dead || r.dead
		if r.held {
			e.objs.push(r, th, e.liveTheta)
		}
	}
	if dead {
		e.retire = append(e.retire, th)
	}
}

// liveTheta reports whether th still names a θ-record: a θ list entry
// whose record was recycled is stale.
func (e *Engine) liveTheta(th arena.Handle) bool {
	_, ok := e.intern.Live(th)
	return ok
}

// unpinTheta and unmap drop a claim on a θ-record; the one that recycles
// it drops the record's claims on its objects.
func (e *Engine) unpinTheta(th arena.Handle) {
	if b, freed := e.intern.Unpin(th); freed {
		e.objs.unpin(&b)
	}
}

func (e *Engine) unmap(th arena.Handle) {
	if b, freed := e.intern.Unmap(th); freed {
		e.objs.unpin(&b)
	}
}

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

// dispatch processes one parametric event over θ's binding — Dispatch,
// DispatchIDs and DispatchHeld after their object-table lookup, which
// turned θ into the binding. It is the body of Figure 5's loop, with the
// θ-table and its leaves playing the role of Δ and Θ:
//
//  1. one θ-table lookup canonicalizes the binding; the monitors more
//     informative than θ are the members of θ's leaves, and each is
//     stepped;
//  2. creation joins: per join plan one lookup of θ restricted to the
//     overlap, whose leaf for the plan's domain lists the progenitors
//     (CreateFull scans the θ-table instead);
//  3. θ itself from ⊥, if nothing claimed it;
//  4. new monitors enter their registry and the leaves of their keys;
//  5. θ's objects record the event's domain, and settle collects what the
//     event left to collect. A lazy engine then sweeps if a sweep is due:
//     a period has passed, or the sweep's adds goal was met.
func (e *Engine) dispatch(sym int, tb *param.Binding) {
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
		e.settle()
		return
	}

	// Canonicalize θ: the one per-θ table lookup of the event. Everything
	// below reaches θ's record, and the records of the monitors it meets,
	// through handles.
	th := e.internB(tb)
	ts := e.intern.At(th)
	tp := &ts.B

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
			if t.stamp == e.stats.Events || !s.B.Compatible(tp) {
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
			leaf, r := jp.all, index.Resolver((*registry)(e))
			if !jp.O.Empty() {
				kb := tp.Restrict(jp.O)
				kh, ok := e.intern.Get(&kb)
				if !ok {
					continue
				}
				if leaf = e.leaves.Find(e.intern.At(kh).Data.leaf, jp.R); leaf == nil {
					continue
				}
				r = e
			}
			buf := leaf.AppendLive(&e.leaves, r, e.visitBuf[:0])
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

	// 5. Record the event's domain on θ's objects, settle, and sweep if one
	// is due. Only here: both recycle θ-records, and the steps above hold
	// pointers into them.
	for pm := evParams; pm != 0; pm = pm.Rest() {
		e.objs.recs[tp.H[pm.First()]].doms |= e.domBit[sym]
	}
	if evParams.Count() > 1 {
		ts.Data.flags |= thetaSeenEvent
	}
	e.settle()
	if e.lazy {
		e.sinceSwep++
		if e.sinceSwep >= e.period {
			e.sinceSwep -= e.period
			e.timedSweep()
		}
	}
}

// Dispatch processes one parametric event: one object-table lookup per
// parameter turns θ into a binding, and dispatch does the rest. It makes
// the engine lazy: the refs it hands over die when the caller kills them,
// unannounced, and only a sweep finds out.
func (e *Engine) Dispatch(sym int, theta param.Instance) {
	if !e.lazy {
		e.lazy, e.sweepAdds = true, minSweepGoal
	}
	tb := param.Binding{Mask: theta.Mask()}
	for pm := tb.Mask; pm != 0; pm = pm.Rest() {
		i := pm.First()
		tb.H[i] = e.objs.handle(theta.Value(i))
	}
	e.dispatch(sym, &tb)
}

// createFromBot materializes θ from the empty-domain progenitor ⊥, unless
// the creation-avoidance guard fires first.
func (e *Engine) createFromBot(sym int, th arena.Handle) {
	if e.opts.Avoid != AvoidOff && e.guardHit(sym, e.intern.At(th).B.Mask, e.botWord) {
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
		if e.objs.aliveMask(e.bindOf(m)).Empty() {
			e.flagMon(h, m)
		}
	case GCCoenable:
		e.checkAliveness(h, m)
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

// flagMon flags a monitor; its registry lets go of it at the next settle.
func (e *Engine) flagMon(h arena.Handle, m *Mon) {
	if m.flags&monFlagged == 0 {
		m.flags |= monFlagged
		e.stats.Flagged++
		e.flagged = append(e.flagged, h)
	}
}

// registry is the Resolver a domain registry is compacted through. Besides
// flagged members it drops the entries whose monitor it no longer holds a
// reference on — recycled, or let go of by unregister — without releasing
// them a second time.
type registry Engine

func (r *registry) NotifyParamDeath(h index.Handle) { (*Engine)(r).NotifyParamDeath(h) }
func (r *registry) Retain(h index.Handle)           { (*Engine)(r).Retain(h) }

func (r *registry) Collectable(h index.Handle) bool {
	m, ok := r.mons.Get(h)
	return !ok || m.flags&(monInReg|monFlagged) != monInReg
}

func (r *registry) Release(h index.Handle) {
	if m, ok := r.mons.Get(h); ok {
		(*Engine)(r).unregister(h, m)
	}
}

// unregister releases the registry's reference on a monitor it holds one
// on. Its entry stays until the registry next compacts.
func (e *Engine) unregister(h arena.Handle, m *Mon) {
	if m.flags&monInReg != 0 {
		m.flags &^= monInReg
		e.Release(h)
	}
}

// observeDeaths delivers parameter-death notifications for a monitor at a
// deterministic point — the moment an event or a creation join reaches it —
// rather than whenever a sweep happens to discover the death (Figure 7's
// notification, hoisted onto the access path). Verdict
// semantics are unchanged: a monitor is only flagged when its ALIVENESS
// formula is false, and by Theorem 1 such a monitor can never reach a goal
// verdict. What eagerness buys is that creation decisions and verdicts become
// a pure function of the per-slice event/death sequence, independent of the
// sweep schedule — the property that lets the sharded runtime
// (internal/shard) compare its merged counters against the sequential
// engine. Flagged and Steps can still depend on the schedule: a sweep may
// flag a monitor this path has not reached. Reports whether the monitor may
// be stepped.
func (e *Engine) observeDeaths(h arena.Handle, m *Mon) bool {
	if m.flags&monFlagged != 0 {
		return false
	}
	if !e.objs.allAlive(e.bindOf(m)) {
		e.NotifyParamDeath(h)
		// A survivor of a death: the step to come moves its last event,
		// which its aliveness reads, so settle looks at it again.
		e.retire = append(e.retire, m.instH)
		return m.flags&monFlagged == 0
	}
	return true
}

// tryCreate materializes θ' = progenitor ⊔ θ if permitted.
func (e *Engine) tryCreate(sym int, theta *param.Binding, progH arena.Handle) {
	prog := e.mons.At(progH)
	if prog.flags&monFlagged != 0 {
		return
	}
	progB := e.bindOf(prog)
	if e.opts.Creation == CreateEnable && !e.objs.allAlive(progB) {
		// The death of any bound object ends the progenitor role: in
		// JavaMOP/RV a progenitor is only reachable through weak keys
		// (see sweep). Observing the death here, instead of at the
		// sweep that would compact the registry, makes the creation
		// decision deterministic. CreateFull is exempt — it is the exact
		// Figure 5 oracle, and Figure 5 has no notion of object death.
		e.NotifyParamDeath(progH)
		return
	}
	lub, ok := progB.Lub(theta)
	if !ok {
		return
	}
	// Membership checks go through Get, not Intern: a lub the guards
	// below reject must leave no intern-table entry behind (its objects
	// may live arbitrarily long), so canonicalization happens only once
	// creation is certain.
	lh, known := e.intern.Get(&lub)
	if known && e.claimed(&e.intern.At(lh).Data) {
		return
	}
	if e.opts.Creation == CreateEnable {
		// Enable check: the progenitor's slice (the candidate's prefix)
		// must be a viable goal-trace prefix for this event.
		if !e.an.EnableParams[sym][prog.paramsSeen] {
			return
		}
		if !e.priorEventsOK(&lub, progB.Mask) {
			return
		}
	}
	if e.opts.Avoid != AvoidOff && e.guardHit(sym, lub.Mask, prog.state) {
		e.stats.Avoided++
		if e.opts.Avoid == AvoidEnforce {
			if !known {
				lh = e.internB(&lub)
			}
			e.recordAvoided(lh)
			return
		}
	}
	if !known {
		lh = e.internB(&lub)
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
// DESIGN.md). The event domains an object appeared under are read off its
// object record.
func (e *Engine) priorEventsOK(lub *param.Binding, progDom param.Set) bool {
	target := lub.Mask
	for xm := target.Diff(progDom); xm != 0; xm = xm.Rest() {
		x := xm.First()
		doms := e.objs.recs[lub.H[x]].doms
		for bi, d := range e.evDomains {
			if doms&(1<<uint(bi)) == 0 || !d.SubsetOf(target) {
				continue
			}
			if d == param.SetOf(x) {
				return false
			}
			kb := lub.Restrict(d)
			if h, ok := e.intern.Get(&kb); ok && e.intern.At(h).Data.flags&thetaSeenEvent != 0 {
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
	e.unpinTheta(instH)
	e.recycled++
}

// step advances one monitor with an event, reports goal verdicts and
// applies monitor termination.
func (e *Engine) step(h arena.Handle, m *Mon, sym int) {
	var goal bool
	var st logic.State
	if e.g != nil {
		// Graph mode: a step is one array read on the state word; the goal
		// test another. No interface values are touched unless a verdict or
		// the dead-state check needs a boxed state.
		m.state = uint32(e.g.Next[m.state][sym])
		goal = e.goal[m.state]
	} else {
		idx := h.Index()
		st = e.boxState[idx].Step(sym)
		e.boxState[idx] = st
		goal = e.spec.goalSet[st.Category()]
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
	if goal {
		e.stats.GoalVerdicts++
		if e.prof != nil && m.flags&monGoaled == 0 {
			m.flags |= monGoaled
			e.prof.ReachedGoal[m.birthSym]++
		}
		if e.opts.OnVerdict != nil {
			var cat logic.Category
			if e.g != nil {
				cat = e.g.Cat[m.state]
			} else {
				cat = st.Category()
			}
			b := e.bindOf(m)
			e.opts.OnVerdict(Verdict{Spec: e.spec, Sym: sym, Cat: cat, Inst: e.instance(b), Key: e.keyOf(b)})
		}
	}
	if e.opts.GC == GCCoenable {
		if e.g != nil {
			st = e.g.State(int(m.state)) // preboxed: no allocation
		}
		if e.an.Dead(st) {
			e.flagMon(h, m)
			return
		}
		if e.an.HasCoenable && len(e.an.CoenParams[sym]) == 0 {
			// No suffix can reach G after this event (∅-only coenable
			// family): terminate after the handler has run (§3).
			e.flagMon(h, m)
		}
	}
}

// checkAliveness evaluates the ALIVENESS formula for the monitor's last
// event (Figure 7 / §4.2.2).
func (e *Engine) checkAliveness(h arena.Handle, m *Mon) {
	b := e.bindOf(m)
	aliveMask := e.objs.aliveMask(b)
	if !e.an.HasCoenable {
		// Fall back to the all-dead condition.
		if aliveMask.Empty() {
			e.flagMon(h, m)
		}
		return
	}
	if !alive(e.an.CoenParams[m.lastSym], b.Mask.Diff(aliveMask)) {
		e.flagMon(h, m)
	}
}

// alive is the ALIVENESS formula: some disjunct binds none of the
// parameters whose objects are dead.
func alive(disjuncts []param.Set, deadBound param.Set) bool {
	for _, s := range disjuncts {
		if s.Inter(deadBound).Empty() {
			return true
		}
	}
	return false
}

// insert places a monitor into its domain's registry and, for every key
// domain K of its domain, into the leaf under θ|K. The registry, which
// keeps the entries of the monitors it let go of, is compacted first when
// it is about to grow, and grown to twice what is left when that freed
// less than half of it: a churn whose live entries stay just below the
// capacity then compacts once per half a capacity of inserts, not at every
// insert.
func (e *Engine) insert(h arena.Handle) {
	m := e.mons.At(h)
	b := e.bindOf(m)
	d := e.domainOf(b.Mask)
	if d.all.Full(&e.leaves) {
		e.compactRegistry(d)
	}
	d.all.Add(&e.leaves, e, h)
	m.flags |= monInReg
	for _, K := range d.keys {
		kh := m.instH // θ|R is θ itself
		if K != d.R {
			kb := b.Restrict(K)
			kh = e.internB(&kb)
		}
		ks := e.intern.At(kh)
		e.leaves.Insert(&ks.Data.leaf, d.R).Add(&e.leaves, e, h)
		if e.opts.Creation == CreateFull && e.objs.anyDead(&ks.B) {
			// A Figure 5 monitor over a dead object, under a key whose
			// object's death is known already: detach it again.
			e.retire = append(e.retire, kh)
		}
	}
}

// compactRegistry compacts a full registry, and grows it to twice what is
// left when that freed less than half of it: either way it has room for
// the next member, as an empty registry has once it gets its first block.
func (e *Engine) compactRegistry(d *domain) {
	c := d.all.Len()
	d.all.Compact(&e.leaves, (*registry)(e))
	if n := d.all.Len(); 2*n > c {
		d.all.Grow(&e.leaves, n)
	}
	d.all.Reserve(&e.leaves)
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

// sweep is a lazy engine's death discovery, the weak references of the
// paper's systems noticing that their objects died: every object record
// asks its ref once whether it is alive, then one pass over the θ-table
// queues every θ-record that binds a dead object — a bit test on its
// object records — and settle collects them, as it collects the deaths
// FreeIDs applies.
//
// The sweep then sets its own pace. The next one falls due once
// max(2n, minSweepGoal) − n θ-records have been added, n being the θ-table
// size this one left, or when the period has passed — under the default,
// max(defaultSweepInterval, n) events. A churn stream, whose new keys are
// mostly garbage, is thus swept at the rate it adds keys. A steady table
// sweeps on the period alone, at most one θ-record visited per event. The
// goal counts adds, not the table's size: settle takes θ-records out of
// the table between sweeps, so a size goal would be met later and later.
func (e *Engine) sweep() {
	e.objs.observe()
	for th, s := range e.intern.All() {
		if e.objs.anyDead(&s.B) {
			e.retire = append(e.retire, th)
		}
	}
	e.settle()
	n := e.intern.Len()
	e.sweepAdds = max(2*n, minSweepGoal) - n
	if e.opts.SweepInterval <= 0 {
		e.period = max(n, defaultSweepInterval)
	}
	if poolCheck {
		if err := checkDeaths(e); err != nil {
			panic("monitor: after a sweep: " + err.Error())
		}
	}
}

// detachDead and retireDead are settle's two steps for a θ-record s with a
// dead object. detachDead detaches its leaves and notifies its monitor
// (the keys that index the monitor may come later in the queue; notifying
// it now lets retireDead see its settled flag).
func (e *Engine) detachDead(s *param.Slot[theta]) {
	e.leaves.Detach(e, &s.Data.leaf)
	if h := s.Data.mon; h != arena.Nil {
		e.NotifyParamDeath(h)
	}
}

// retireDead applies settle's rules to Δ(θ), θ's tombstone and θ's
// mapping.
func (e *Engine) retireDead(th arena.Handle, s *param.Slot[theta]) {
	t := &s.Data
	if h := t.mon; h != arena.Nil {
		m := e.mons.At(h)
		if m.flags&monFlagged != 0 || m.flags&monCollected != 0 && e.opts.Creation != CreateFull {
			t.mon = arena.Nil
			if m.flags&monCollected != 0 {
				e.recycle(h, m)
			}
		}
	}
	if e.opts.GC == GCCoenable || e.opts.GC == GCAllDead && e.objs.aliveMask(&s.B).Empty() {
		t.flags &^= thetaAvoided
	}
	t.flags &^= thetaSeenEvent
	if t.mon == arena.Nil && t.flags&thetaAvoided == 0 {
		e.unmap(th)
	}
}

// settle is the engine's one collector, the physical weak-reference
// semantics the paper's systems get from the JVM: bookkeeping entries
// whose objects died are dropped. It runs at the end of every event, in
// FreeIDs after the deaths it applied and in a sweep after the deaths it
// found. The θ-records in retire bind a dead object — the records of the
// objects just freed or found dead, survivors of earlier deaths stepped
// since, new records over a dead object — and each gets two steps, the
// first on all of them before the second, so every Δ rule sees the
// monitor's settled flag and refcount:
//
//   - θ's leaves are detached (Figure 7): the monitors indexed under the
//     dead key are notified, then released, and the leaf records recycled.
//     This comes first, so a θ-record is never unmapped or recycled with a
//     leaf attached. Δ(θ) is notified too.
//
// Between the two steps, Δ(θ) of every such record and every monitor
// flagged since the last settle leaves its domain registry: in JavaMOP/RV
// a progenitor is only reachable through weak keys, so the death of any of
// its objects ends its progenitor role. Then, per θ:
//
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
//     so its Δ entry goes at the first settle after any bound object's
//     death is known; under alldead it is flagged (and its entry goes) once
//     every object is dead; under none Δ entries never leave. Dropped or
//     kept, the instance cannot be wrongly rebuilt — a recurrence needs
//     every object alive — so this only mirrors bookkeeping lifetime.
//   - The multi-parameter-event mark of the fresh-object guard goes.
//   - θ is unmapped once it is neither in Δ nor tombstoned; its slot is
//     recycled when no monitor pins it (see param.Interner), and with it
//     its pins on its objects.
//
// Last, the object records that lost their last θ-record after their death
// are dropped and released.
func (e *Engine) settle() {
	if len(e.retire) == 0 && len(e.flagged) == 0 && len(e.objs.dropq) == 0 {
		return
	}
	ths := e.retire
	for _, th := range ths {
		if s, ok := e.intern.Live(th); ok {
			e.detachDead(s)
			if h := s.Data.mon; h != arena.Nil {
				e.unregister(h, e.mons.At(h))
			}
		}
	}
	for _, h := range e.flagged {
		if m, ok := e.mons.Get(h); ok {
			e.unregister(h, m)
		}
	}
	for _, th := range ths {
		if s, ok := e.intern.Live(th); ok {
			e.retireDead(th, s)
		}
	}
	e.retire, e.flagged = ths[:0], e.flagged[:0]
	e.objs.drain(e.onRelease)
}

// Flush settles the Figure 10 counters at the end of a monitored run: a
// lazy engine first sweeps, then the leaves of every θ whose objects all
// live and every registry are compacted, which releases every flagged
// monitor from every container, and settle collects what that left. A
// positioned engine has collected every death already, so its Flush
// visits no dead θ-record and sweeps nothing. Flush publishes the
// counters into Options.Metrics.
func (e *Engine) Flush() {
	if poolCheck {
		if err := checkDeaths(e); err != nil {
			panic("monitor: before Flush: " + err.Error())
		}
	}
	if e.lazy {
		e.timedSweep()
	}
	for _, s := range e.intern.All() {
		if s.Data.leaf != arena.Nil && e.objs.allAlive(&s.B) {
			e.leaves.Compact(e, &s.Data.leaf)
		}
	}
	for i := range e.domains {
		e.domains[i].all.Compact(&e.leaves, (*registry)(e))
	}
	e.settle()
	if e.met != nil {
		e.publishMetrics()
	}
	if poolCheck {
		if err := CheckTheta(e, true); err != nil {
			panic("monitor: after Flush: " + err.Error())
		}
	}
}

// State returns the current base state for θ, or nil if no monitor exists.
func (e *Engine) State(inst param.Instance) logic.State {
	th, ok := e.lookup(inst)
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

// lookup returns the θ-record of an instance, if the engine has one: no
// object record or θ-record is added.
func (e *Engine) lookup(inst param.Instance) (arena.Handle, bool) {
	b := param.Binding{Mask: inst.Mask()}
	for m := b.Mask; m != 0; m = m.Rest() {
		i := m.First()
		h, ok := e.objs.find(inst.Value(i).ID())
		if !ok {
			return arena.Nil, false
		}
		b.H[i] = h
	}
	return e.intern.Get(&b)
}

// keyOf returns the instance key of a binding: its objects' IDs.
func (e *Engine) keyOf(b *param.Binding) param.Key {
	k := param.Key{Mask: b.Mask}
	for m := b.Mask; m != 0; m = m.Rest() {
		i := m.First()
		k.IDs[i] = e.objs.recs[b.H[i]].id
	}
	return k
}

// thetaLess orders θ handles by instance key (mask, then IDs), the
// deterministic order every backend shares.
func (e *Engine) thetaLess(a, b arena.Handle) bool {
	return keyLess(e.keyOf(&e.intern.At(a).B), e.keyOf(&e.intern.At(b).B))
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
	ac, bc := e.intern.At(a).B.Mask.Count(), e.intern.At(b).B.Mask.Count()
	if ac != bc {
		return ac > bc
	}
	return e.thetaLess(a, b)
}
