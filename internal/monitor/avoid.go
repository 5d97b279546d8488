// avoid.go: the runtime half of the static creation-avoidance analysis
// (internal/coenable's Doomed/Guards). The engine consults a creation
// guard immediately before materializing a monitor; in audit mode the hit
// is only counted (Stats.Avoided), in enforce mode the creation is
// suppressed and the instance recorded as a tombstone so the engine's
// create-once discipline (an instance in Δ is never rebuilt from a less
// informative slice) stays in lockstep with the unguarded engine.
//
// Soundness boundaries, stated by Options.Check and proven against
// the audited engine by conformance.Diff's avoidance modes (see DESIGN.md
// "Static creation avoidance"):
//
//   - Audit mode never changes behavior: any strategy, any GC policy.
//   - Enforce + CreateEnable suppresses only maximal-domain creations.
//     A maximal-domain monitor can never serve as a join progenitor (every
//     join strictly grows the domain, and the maximal domain — the union
//     of all event parameter sets, present by union closure — has no
//     strict superset), so suppressing it cannot starve a descendant; the
//     tombstone replicates its Δ-blocking exactly, including its exit from
//     Δ (see sweep).
//   - Enforce + CreateFull additionally suppresses the suppressed
//     instance's would-be descendants (doom is a trap: every successor of
//     a doomed state is doomed), with tombstones standing in as Figure-5
//     scan progenitors. This requires GCNone — with monitor GC on, a real
//     doomed monitor's flag timing (which ends its progenitor role)
//     depends on access and sweep timing a tombstone cannot mirror.
package monitor

import (
	"fmt"

	"rvgo/internal/arena"
	"rvgo/internal/param"
)

// AvoidMode selects how the engine uses the creation-avoidance guards.
type AvoidMode int

const (
	// AvoidOff disables the guards entirely (the default).
	AvoidOff AvoidMode = iota
	// AvoidAudit evaluates the guards and counts would-be-suppressed
	// creations in Stats.Avoided, but still materializes every monitor:
	// behavior is bit-identical to AvoidOff.
	AvoidAudit
	// AvoidEnforce suppresses guarded creations, recording tombstones so
	// per-slice verdicts stay bit-identical to the unguarded engine.
	AvoidEnforce
)

func (m AvoidMode) String() string {
	switch m {
	case AvoidOff:
		return "off"
	case AvoidAudit:
		return "audit"
	case AvoidEnforce:
		return "enforce"
	}
	return fmt.Sprintf("AvoidMode(%d)", int(m))
}

// ParseAvoidMode maps the -avoid flag values to avoidance modes.
func ParseAvoidMode(s string) (AvoidMode, error) {
	switch s {
	case "off", "":
		return AvoidOff, nil
	case "audit":
		return AvoidAudit, nil
	case "enforce":
		return AvoidEnforce, nil
	}
	return 0, fmt.Errorf("unknown avoidance mode %q (want off, audit or enforce)", s)
}

// CreationProfile accumulates per-creation-site statistics during a run:
// for each event symbol, how many monitors were born at it, how many of
// those were ever stepped again after their birth step, and how many ever
// reached a goal category. A profile collected from a recorded trace
// replay feeds Guards, the profile-guided complement to the static doomed
// analysis. Counters are engine-local and unsynchronized: attach a
// profile to a sequential engine only, and read it after Flush/Close.
type CreationProfile struct {
	Events      []string // event names, index = symbol
	Created     []uint64 // monitors born at the symbol
	Restepped   []uint64 // of those, stepped again after the birth step
	ReachedGoal []uint64 // of those, ever reaching a goal category
}

// NewCreationProfile returns an empty profile sized for the spec.
func NewCreationProfile(s *Spec) *CreationProfile {
	p := &CreationProfile{
		Events:      make([]string, len(s.Events)),
		Created:     make([]uint64, len(s.Events)),
		Restepped:   make([]uint64, len(s.Events)),
		ReachedGoal: make([]uint64, len(s.Events)),
	}
	for i, ev := range s.Events {
		p.Events[i] = ev.Name
	}
	return p
}

// bind validates a caller-constructed profile against the spec.
func (p *CreationProfile) bind(s *Spec) error {
	n := len(s.Events)
	if len(p.Created) != n || len(p.Restepped) != n || len(p.ReachedGoal) != n {
		return fmt.Errorf("monitor: creation profile sized for %d events, spec %q has %d", len(p.Created), s.Name, n)
	}
	return nil
}

// Guards synthesizes per-symbol profile guards: an event symbol is
// guarded when the profiled run created monitors at it and none ever
// reached a goal. Such guards are empirical, not proven — they hold for
// the profiled trace (replaying it under enforce mode preserves every
// verdict) and for workloads with the same creation-site behavior; the
// engine additionally restricts their enforcement to maximal-domain
// creations so suppression can never starve a descendant monitor.
func (p *CreationProfile) Guards() []bool {
	out := make([]bool, len(p.Created))
	for sym := range p.Created {
		out[sym] = p.Created[sym] > 0 && p.ReachedGoal[sym] == 0
	}
	return out
}

// GuardedSites returns how many symbols Guards would guard.
func (p *CreationProfile) GuardedSites() int {
	n := 0
	for _, g := range p.Guards() {
		if g {
			n++
		}
	}
	return n
}

// guardHit evaluates the creation guards for a creation with instance
// domain dom whose first transition is sym out of graph state base. It
// reports true when the creation is provably (static doomed guard) or
// empirically (profile guard) unable to reach a goal category. Guards are
// only consulted when Options.Avoid is not AvoidOff, so the unguarded hot
// path is untouched.
func (e *Engine) guardHit(sym int, dom param.Set, base uint32) bool {
	if e.g != nil && e.an.Doomed[e.g.Next[base][sym]] {
		// The static guard: the post-creation state cannot reach a goal.
		// Under CreateEnable only maximal-domain creations are eligible
		// (see the package comment in avoid.go); under CreateFull the
		// tombstone closure covers descendants, so every creation is.
		if e.opts.Creation == CreateFull || dom == e.allParams {
			return true
		}
	}
	if e.profGuards != nil && e.profGuards[sym] && dom == e.allParams {
		return true
	}
	return false
}

// recordAvoided tombstones a suppressed creation: the instance's θ-record
// is marked avoided (blocking any later from-⊥ or join rebuild with a wrong
// slice, exactly as the real monitor's Δ entry would have) and processed
// for this event.
func (e *Engine) recordAvoided(th arena.Handle) {
	t := &e.intern.At(th).Data
	t.flags |= thetaAvoided
	t.stamp = e.stats.Events
}

// tryAvoidLub replicates tryCreate for a suppressed (tombstoned)
// progenitor under CreateFull: the lub the unguarded engine would have
// built from it starts in a doomed state too (doom is a trap), so it is
// recorded as avoided rather than materialized. First-claim-wins ordering
// with the real candidates is preserved by the one sorted scan in Dispatch.
func (e *Engine) tryAvoidLub(theta *param.Binding, ghost arena.Handle) {
	lub, ok := e.intern.At(ghost).B.Lub(theta)
	if !ok {
		return
	}
	lh, known := e.intern.Get(&lub)
	if known && e.claimed(&e.intern.At(lh).Data) {
		return
	}
	if !known {
		lh = e.internB(&lub)
	}
	e.stats.Avoided++
	e.recordAvoided(lh)
}
