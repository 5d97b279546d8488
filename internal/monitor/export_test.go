package monitor

import (
	"fmt"

	"rvgo/internal/arena"
	"rvgo/internal/param"
)

// RaceBuild reports a race build: the arena poison checks are armed and
// allocation counts mean nothing.
const RaceBuild = poolCheck

// SeenObjects returns the size of the fresh-object guard's per-object table.
func SeenObjects(e *Engine) int { return len(e.seen) }

// CheckTheta walks the θ-table and the monitor arena and reports the first
// violation of the invariants that tie them together — the rules the engine
// used to keep between five tables, stated on the one record:
//
//   - Δ(θ) ≠ Nil ⇒ θ is mapped, the monitor record is live, and it names
//     this θ-record back;
//   - a tombstoned θ is mapped and has no monitor;
//   - a θ-record's pin count is the number of live monitor records naming
//     it (so every monitor's instance handle resolves);
//   - an unmapped θ-record is pinned (otherwise it would have recycled);
//   - no two mapped θ-records share a key, and the table maps exactly the
//     mapped ones.
//
// First instalment of ROADMAP's Engine.CheckInvariants.
func CheckTheta(e *Engine) error {
	pins := map[arena.Handle]int32{}
	for _, m := range e.mons.All() {
		pins[m.instH]++
	}
	keys := map[param.Key]arena.Handle{}
	for th, s := range e.intern.All() {
		t := &s.Data
		if t.mon != arena.Nil {
			if !s.Mapped() {
				return fmt.Errorf("θ %v is in Δ but unmapped", s.Inst)
			}
			if !e.mons.Alive(t.mon) {
				return fmt.Errorf("Δ(%v) = %v, a recycled monitor", s.Inst, t.mon)
			}
			if got := e.mons.At(t.mon).instH; got != th {
				return fmt.Errorf("Δ(%v) = %v, whose record names θ-record %v, not %v", s.Inst, t.mon, got, th)
			}
		}
		if t.flags&thetaAvoided != 0 && (!s.Mapped() || t.mon != arena.Nil) {
			return fmt.Errorf("tombstoned θ %v: mapped %v, Δ %v", s.Inst, s.Mapped(), t.mon)
		}
		if s.Pins() != pins[th] {
			return fmt.Errorf("θ %v has %d pins, %d live monitors name it", s.Inst, s.Pins(), pins[th])
		}
		delete(pins, th)
		if !s.Mapped() {
			if s.Pins() <= 0 {
				return fmt.Errorf("θ %v is unmapped and unpinned but not recycled", s.Inst)
			}
			continue
		}
		k := s.Inst.Key()
		if prev, dup := keys[k]; dup {
			return fmt.Errorf("θ-records %v and %v are both mapped under %v", prev, th, s.Inst)
		}
		keys[k] = th
		if got, ok := e.intern.Get(k); !ok || got != th {
			return fmt.Errorf("θ %v is marked mapped at %v but the table resolves it to %v (%v)", s.Inst, th, got, ok)
		}
	}
	for th, n := range pins {
		return fmt.Errorf("%d live monitors name θ-record %v, which is recycled", n, th)
	}
	if len(keys) != e.intern.Len() {
		return fmt.Errorf("θ-table maps %d keys, %d records are marked mapped", e.intern.Len(), len(keys))
	}
	return nil
}
