// fanout.go: the pivot-hashed fanout — one upstream monitoring stream
// spread over N rvserve nodes.
//
// The unit of placement is the slot (a virtual shard): pivot object IDs
// hash onto a fixed ring of slots, and rendezvous hashing assigns each
// slot to a node. Every slot is one ordinary sequential wire session on
// its node, so a slot's slices see exactly the event/death interleaving
// the upstream client produced, and the node's verdict stream for the
// slot is a deterministic function of that interleaving. Events binding
// the spec's pivot parameter route to the pivot's slot; events that do
// not bind the pivot (and all frees) broadcast to every slot — the same
// discipline internal/shard applies in-process, and sound for the same
// reason: under enable-set creation every monitor instance binds the
// pivot, so each slice lives in exactly one slot.
//
// Membership changes move whole slots. Each slot keeps a journal of the
// records it has accepted; moving the slot replays the journal into a
// fresh session on the new owner inside a HandoffBegin/End bracket whose
// Skip count tells the node how many verdicts the upstream already saw
// (the determinism above makes the replayed verdict stream identical, so
// skipping exactly that many forwards delivers precisely the tail a
// crashed donor never sent). Graceful moves additionally check the
// receiver's settled counters against the donor's ByeAck — a free
// end-to-end determinism audit on every rebalance. The journal is the
// durability story and its cost: memory grows with the stream, the price
// of being able to reconstruct any slot on any node at any time.
package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/shard"
	"rvgo/internal/wire"
)

// defaultSlots is the slot-ring size when the caller does not choose one:
// enough granularity to spread over small clusters and to keep handoff
// units (and replay bursts) an order of magnitude smaller than the
// stream, without opening hundreds of sessions per upstream client.
const defaultSlots = 16

// fanoutConfig is the internal wiring for a fanout; Client and Router
// translate their options (and, for the Router, the upstream session's
// validated hello) into one of these.
type fanoutConfig struct {
	// hello opens every slot session: the spec reference, the modes and
	// the per-slot credit window request (0 = node default). A Router hands
	// down the upstream session's own, so whatever a client may ask of a
	// node it asks of every node behind a router. Shards is overridden.
	hello wire.Hello
	nodes []string
	seed  uint64
	slots int

	dial func(string) (net.Conn, error)
	logf func(string, ...any)
	met  *metrics.ClusterSeries

	// onVerdict receives merged verdicts; invocations are serialized.
	onVerdict func(wire.Verdict)
	// onHandoff is invoked after each completed slot move with the number
	// of journal records replayed (nil ok).
	onHandoff func(records int)
	// onNodeDown is invoked when a node is evicted from the membership
	// (nil ok). Called with the fanout lock held; must not call back.
	onNodeDown func(addr string)
}

// slotState is one slot: its current session, the full journal of records
// it has accepted, and the send watermark into the current session.
type slotState struct {
	ln *link
	// The journal records before sent have been written to ln's current
	// incarnation; a handoff rewinds sent and replays the whole journal.
	journal journal
	sent    jcursor
	// verdicts counts verdict forwards delivered upstream from this slot,
	// across all incarnations — the Skip count for the next handoff.
	// Written only by the owning link's reader goroutine.
	verdicts atomic.Uint64
	done     bool // closed with a settled ByeAck; never touched again
}

// fanout is the cluster runtime core: the sink under a Client's ref-level
// front and the backend under a Router session's protocol front
// (server.Backend is its method set). One coarse mutex serializes the mutating surface (events,
// frees, syncs, membership); link readers — credit, verdicts, acks —
// never take it, which is what keeps the pipeline moving while an
// operation blocks on downstream credit.
type fanout struct {
	spec     *monitor.Spec
	cfg      fanoutConfig
	hello    wire.Hello
	routerID uint64
	pivot    int
	// pivotPos[sym] is the index of the pivot's ID within the event's
	// ascending-parameter ID vector, or -1 when the event must broadcast.
	pivotPos []int

	events atomic.Uint64 // upstream events accepted (broadcasts count once)

	emu sync.Mutex // guards err alone, so Err never waits on an op
	err error

	vmu sync.Mutex // serializes upstream verdict delivery across readers

	mu     sync.Mutex
	nodes  []string
	slots  []*slotState
	held   []bool // broadcast scratch: credits held per slot, under mu
	closed bool
	final  monitor.Stats
}

var fanoutSeq atomic.Uint64

// newFanout compiles nothing — the caller resolved the spec — but
// analyzes it for the pivot, opens every slot session, and leaves the
// fanout ready to route.
func newFanout(spec *monitor.Spec, cfg fanoutConfig) (*fanout, error) {
	if len(cfg.nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	seen := map[string]bool{}
	for _, n := range cfg.nodes {
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %s", n)
		}
		seen[n] = true
	}
	nslots := cfg.slots
	if nslots <= 0 {
		nslots = defaultSlots
	}
	if err := cfg.hello.Options().Check(spec, nslots); err != nil {
		return nil, err
	}
	sr, err := shard.NewRouter(spec, 2)
	if err != nil {
		return nil, err
	}
	pivot := sr.Pivot()
	if pivot < 0 {
		// Unshardable spec: a single slot on one node still gives the
		// remote-cluster deployment shape (and handoff) without routing.
		nslots = 1
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	if cfg.dial == nil {
		cfg.dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.onVerdict == nil {
		cfg.onVerdict = func(wire.Verdict) {}
	}
	f := &fanout{
		spec:     spec,
		cfg:      cfg,
		routerID: fanoutSeq.Add(1),
		pivot:    pivot,
		pivotPos: make([]int, len(spec.Events)),
		nodes:    append([]string(nil), cfg.nodes...),
		slots:    make([]*slotState, nslots),
		held:     make([]bool, nslots),
		hello:    cfg.hello,
	}
	f.hello.Shards = 1 // slot sessions must be sequential: handoff Skip counts rely on a deterministic verdict order
	for sym, ev := range spec.Events {
		f.pivotPos[sym] = -1
		if pivot >= 0 && ev.Params.Has(pivot) {
			// IDs cross the wire in ascending parameter order; the pivot's
			// position is the number of bound parameters below it.
			f.pivotPos[sym] = (ev.Params & (1<<uint(pivot) - 1)).Count()
		}
	}
	// Construction holds the fanout lock: a link that dies mid-open fires
	// its onDown repair goroutine, which must not walk the half-built slot
	// table until every slot has a link — or, on failure, until the fanout
	// is marked closed so the repair becomes a no-op.
	f.mu.Lock()
	for i := range f.slots {
		f.slots[i] = &slotState{}
		ln, err := f.openSlot(i, f.ownerForLocked(i))
		if err != nil {
			f.closed = true
			for j := 0; j < i; j++ {
				f.slots[j].ln.shutdown()
			}
			f.mu.Unlock()
			return nil, err
		}
		f.slots[i].ln = ln
	}
	f.mu.Unlock()
	if m := cfg.met; m != nil {
		m.Nodes.Set(int64(len(f.nodes)))
		m.Slots.Set(int64(nslots))
	}
	return f, nil
}

// openSlot opens a fresh session for slot i on addr, wiring the verdict
// and failure callbacks.
func (f *fanout) openSlot(i int, addr string) (*link, error) {
	onVerdict := func(v wire.Verdict) {
		// Count, then deliver, both inside the reader's synchronous
		// callback: a node crash can never separate the two, so the
		// counter is exactly the number of verdicts upstream received.
		f.slots[i].verdicts.Add(1)
		if m := f.cfg.met; m != nil {
			m.Verdicts.Inc()
		}
		f.vmu.Lock()
		f.cfg.onVerdict(v)
		f.vmu.Unlock()
	}
	onDown := func() {
		// Reader goroutine; repair needs the fanout lock, so detach. If an
		// operation is already stuck on this link it repairs inline first
		// and this pass finds nothing dirty.
		go f.repair()
	}
	return openLink(f.cfg.dial, addr, f.routerID, i, f.spec, f.hello, onVerdict, onDown)
}

// repair re-homes dead slots from the background failure path.
func (f *fanout) repair() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed || f.errLocked() != nil {
		return
	}
	f.rebalanceLocked()
}

func (f *fanout) errLocked() error {
	f.emu.Lock()
	defer f.emu.Unlock()
	return f.err
}

func (f *fanout) setErr(err error) {
	f.emu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.emu.Unlock()
	f.cfg.logf("cluster: %v", err)
}

// Err returns the sticky fatal error, if any.
func (f *fanout) Err() error {
	f.emu.Lock()
	defer f.emu.Unlock()
	return f.err
}

// member reports addr ∈ nodes. Callers hold mu.
func (f *fanout) memberLocked(addr string) bool {
	for _, n := range f.nodes {
		if n == addr {
			return true
		}
	}
	return false
}

func (f *fanout) removeAddrLocked(addr string) {
	for i, n := range f.nodes {
		if n == addr {
			f.nodes = append(f.nodes[:i], f.nodes[i+1:]...)
			if m := f.cfg.met; m != nil {
				m.Nodes.Set(int64(len(f.nodes)))
			}
			if f.cfg.onNodeDown != nil {
				f.cfg.onNodeDown(addr)
			}
			return
		}
	}
}

// ownerForLocked is the rendezvous (highest-random-weight) assignment of
// a slot to a node: each slot ranks all members by a mixed hash and picks
// the max, so a membership change moves only the slots whose winner
// changed — no global reshuffle.
func (f *fanout) ownerForLocked(slot int) string {
	h := shard.Mix(uint64(slot) ^ f.cfg.seed)
	best, bw := "", uint64(0)
	for _, n := range f.nodes {
		w := shard.Mix(hashAddr(n) ^ h)
		if best == "" || w > bw || (w == bw && n < best) {
			best, bw = n, w
		}
	}
	return best
}

// hashAddr is FNV-1a 64 over the node address.
func hashAddr(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// slotOf maps a pivot object ID to its slot. The mapping depends only on
// the ring size and seed — never on membership — so slices keep their
// slot identity across joins and leaves.
func (f *fanout) slotOf(id uint64) int {
	if len(f.slots) == 1 {
		return 0
	}
	return int(shard.Mix(id^f.cfg.seed) % uint64(len(f.slots)))
}

// rebalanceLocked drives the slot assignment back to the rendezvous
// ideal: every slot that is dead, or whose owner is no longer the
// rendezvous winner, is moved — gracefully when the donor still answers
// (Bye, verify counters), by journal replay alone when it crashed. A
// target that fails mid-move is evicted and the loop re-runs until the
// assignment is clean or no nodes remain.
func (f *fanout) rebalanceLocked() error {
	for {
		if err := f.errLocked(); err != nil {
			return err
		}
		if len(f.nodes) == 0 {
			err := fmt.Errorf("cluster: all nodes lost")
			f.setErr(err)
			f.releaseAllLocked()
			return err
		}
		dirty := -1
		for i, s := range f.slots {
			if s.done {
				continue
			}
			if s.ln.dead() || s.ln.addr != f.ownerForLocked(i) {
				dirty = i
				break
			}
		}
		if dirty < 0 {
			return nil
		}
		s := f.slots[dirty]
		var donor *wire.Stats
		if !s.ln.dead() && f.memberLocked(s.ln.addr) {
			// Live donor: orderly Bye settles the slot and yields the
			// counters the replayed copy must reproduce.
			if st, ok := s.ln.close(); ok {
				donor = &st
			}
		} else {
			s.ln.shutdown()
		}
		target := f.ownerForLocked(dirty)
		ok, err := f.moveSlotLocked(dirty, target, donor)
		if err != nil {
			f.setErr(err)
			return err
		}
		if !ok {
			f.cfg.logf("cluster: node %s lost during slot %d handoff", target, dirty)
			f.removeAddrLocked(target)
		}
	}
}

// moveSlotLocked rebuilds slot i on addr by journal replay. ok=false
// means the target failed (retry elsewhere); a non-nil error is fatal
// (determinism audit failure). On success the slot's watermark covers the
// whole journal and the node has flushed — the slot is settled.
func (f *fanout) moveSlotLocked(i int, addr string, donor *wire.Stats) (ok bool, err error) {
	s := f.slots[i]
	skip := s.verdicts.Load()
	ln, lerr := f.openSlot(i, addr)
	if lerr != nil {
		return false, nil
	}
	s.ln = ln
	s.sent = jcursor{}
	if !ln.handoffBegin(skip) {
		return false, nil
	}
	for s.sent.rec < s.journal.n {
		if _, ok := ln.send(&s.journal, &s.sent, s.journal.n); !ok {
			return false, nil
		}
	}
	st, acked := ln.handoffEnd()
	if !acked {
		return false, nil
	}
	if donor != nil && !statsEqual(st, *donor) {
		return false, fmt.Errorf("cluster: slot %d handoff to %s diverged: donor settled %+v, replay settled %+v", i, addr, *donor, st)
	}
	if f.cfg.onHandoff != nil {
		f.cfg.onHandoff(s.journal.n)
	}
	if m := f.cfg.met; m != nil {
		m.Handoffs.Inc()
		m.HandoffRecords.Add(uint64(s.journal.n))
	}
	f.cfg.logf("cluster: slot %d moved to %s (%d records, skip %d)", i, addr, s.journal.n, skip)
	return true, nil
}

// releaseAllLocked abandons every remaining link after a fatal error so
// no reader goroutine outlives the fanout.
func (f *fanout) releaseAllLocked() {
	for _, s := range f.slots {
		if !s.done {
			s.ln.shutdown()
		}
	}
}

// statsEqual is the handoff audit: the settled counters of a donor and of
// the replay that replaces it. PeakLive is excluded — a donor that was
// itself built by a handoff ran that handoff's HandoffEnd flush in the
// middle of its stream, which the journal does not record and the replay
// therefore performs at a different point; the flush moves the transient
// peak and nothing that settles.
func statsEqual(a, b wire.Stats) bool {
	a.Token, b.Token = 0, 0
	a.PeakLive, b.PeakLive = 0, 0
	return a == b
}

// Event accepts one upstream event. Pivot-binding events route to the
// pivot's slot; the rest broadcast under the all-or-nothing credit
// discipline: one credit is acquired from every slot before any frame is
// written, so a single refusing node withholds the entire broadcast — and
// with it the upstream credit the caller would have replenished.
func (f *fanout) Event(sym int, ids []uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if err := f.errLocked(); err != nil {
		return err
	}
	f.events.Add(1)
	if pp := f.pivotPos[sym]; pp >= 0 && len(f.slots) > 1 {
		i := f.slotOf(ids[pp])
		s := f.slots[i]
		s.journal.append(sym, ids)
		if err := f.pumpLocked(i, s.journal.n); err != nil {
			return err
		}
		if m := f.cfg.met; m != nil {
			m.Events.Inc()
		}
		return nil
	}
	for _, s := range f.slots {
		s.journal.append(sym, ids)
	}
	if err := f.broadcastPumpLocked(); err != nil {
		return err
	}
	if m := f.cfg.met; m != nil {
		m.Broadcasts.Inc()
	}
	return nil
}

// Free broadcasts object deaths to every slot. Frees are credit-exempt
// (they shrink node state) but journaled like events: replay must
// reproduce the exact event/death interleaving.
func (f *fanout) Free(ids []uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if err := f.errLocked(); err != nil {
		return err
	}
	for i, s := range f.slots {
		s.journal.append(-1, ids)
		if err := f.pumpLocked(i, s.journal.n); err != nil {
			return err
		}
	}
	if m := f.cfg.met; m != nil {
		m.Frees.Inc()
	}
	return nil
}

// pumpLocked writes slot i's unsent journal records up to (not including)
// record upto to its current link, re-homing — which itself replays the
// whole journal — on link death.
func (f *fanout) pumpLocked(i, upto int) error {
	s := f.slots[i]
	for s.sent.rec < upto {
		stalled, ok := s.ln.send(&s.journal, &s.sent, upto)
		if stalled {
			if m := f.cfg.met; m != nil {
				m.CreditStalls.Inc()
			}
		}
		if !ok {
			if err := f.rebalanceLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// broadcastPumpLocked delivers the freshly appended broadcast record to
// every slot, acquiring one credit from each before writing to any.
func (f *fanout) broadcastPumpLocked() error {
	// Phase 0: slots already behind by more than this record (a prior
	// failure) catch up first, so each slot is at most one record short.
	for i, s := range f.slots {
		if err := f.pumpLocked(i, s.journal.n-1); err != nil {
			return err
		}
	}
	// Phase 1: acquire everywhere before writing anywhere. A dead link
	// triggers a rebalance whose replay delivers the record to the
	// re-homed slots; the retry loop keeps track of credits already held
	// so a live slot never pays twice.
	held := f.held[:0]
	for range f.slots {
		held = append(held, false)
	}
	for {
		allLive := true
		for i, s := range f.slots {
			if s.sent.rec == s.journal.n {
				// Delivered by a handoff replay (which pays its own way);
				// any credit held from an earlier pass goes back.
				if held[i] {
					s.ln.p.Refund(1)
					held[i] = false
				}
				continue
			}
			if held[i] {
				continue
			}
			_, stalled := s.ln.p.Acquire(1)
			if stalled {
				if m := f.cfg.met; m != nil {
					m.CreditStalls.Inc()
				}
			}
			if s.ln.dead() {
				allLive = false // the credit was a dead window's flood
			} else {
				held[i] = true
			}
		}
		if allLive {
			break
		}
		if err := f.rebalanceLocked(); err != nil {
			return err
		}
	}
	// Phase 2: write the record everywhere the replay did not.
	failed := false
	for i, s := range f.slots {
		if s.sent.rec == s.journal.n {
			if held[i] {
				s.ln.p.Refund(1)
			}
			continue
		}
		sym, ids := s.journal.at(&s.sent)
		if s.ln.p.Event(sym, ids) {
			s.sent.next(len(ids))
		} else {
			failed = true
		}
	}
	if failed {
		return f.rebalanceLocked()
	}
	return nil
}

// Barrier settles every slot: when it returns, every verdict caused by
// previously accepted events has been delivered upstream (each slot's
// BarrierAck is ordered behind its verdicts, and the link reader delivers
// verdicts before completing the ack).
func (f *fanout) Barrier() error { return f.syncAll((*link).barrier) }

// Flush additionally retires pending parameter deaths on every node.
func (f *fanout) Flush() error { return f.syncAll((*link).flush) }

func (f *fanout) syncAll(op func(*link) bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	for {
		if err := f.errLocked(); err != nil {
			return err
		}
		clean := true
		for _, s := range f.slots {
			if !s.done && !op(s.ln) {
				clean = false
				break
			}
		}
		if clean {
			return nil
		}
		if err := f.rebalanceLocked(); err != nil {
			return err
		}
	}
}

// Stats merges the per-slot counters. Events is the fanout's own count —
// a broadcast is one upstream event however many slots stepped on it —
// while the engine-side counters sum exactly: each slice lives in one
// slot, so no step, creation, or verdict is double-counted.
func (f *fanout) Stats() (monitor.Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return f.final, nil
	}
	for {
		agg := monitor.Stats{Events: f.events.Load()}
		if err := f.errLocked(); err != nil {
			return agg, err
		}
		clean := true
		for _, s := range f.slots {
			if s.done {
				continue
			}
			st, ok := s.ln.stats()
			if !ok {
				clean = false
				break
			}
			agg.Merge(st.Counters())
		}
		if clean {
			return agg, nil
		}
		if err := f.rebalanceLocked(); err != nil {
			return monitor.Stats{Events: f.events.Load()}, err
		}
	}
}

// Close settles every slot with an orderly Bye and merges the final
// counters. Slots whose node crashed at the worst moment are re-homed
// first so the final numbers are exact whenever any node survives.
func (f *fanout) Close() (monitor.Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return f.final, f.errLocked()
	}
	agg := monitor.Stats{Events: f.events.Load()}
	for {
		if err := f.errLocked(); err != nil {
			f.closed = true
			f.final = agg
			f.releaseAllLocked()
			return agg, err
		}
		pending := false
		for _, s := range f.slots {
			if s.done {
				continue
			}
			st, ok := s.ln.close()
			if !ok {
				pending = true
				break
			}
			agg.Merge(st.Counters())
			s.done = true
		}
		if !pending {
			break
		}
		if err := f.rebalanceLocked(); err != nil {
			f.closed = true
			f.final = agg
			f.releaseAllLocked()
			return agg, err
		}
	}
	f.closed = true
	f.final = agg
	return agg, nil
}

// Nodes reports the current membership and how many slots each member
// owns (by the slots' live sessions, not the rendezvous ideal).
func (f *fanout) Nodes() []NodeStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	counts := map[string]int{}
	for _, n := range f.nodes {
		counts[n] = 0
	}
	for _, s := range f.slots {
		if !s.done && s.ln != nil {
			counts[s.ln.addr]++
		}
	}
	out := make([]NodeStatus, 0, len(f.nodes))
	for _, n := range f.nodes {
		out = append(out, NodeStatus{Addr: n, Slots: counts[n]})
	}
	return out
}

// NodeStatus describes one cluster member.
type NodeStatus struct {
	Addr  string `json:"addr"`
	Slots int    `json:"slots"` // slots whose live session it hosts
}

// AddNode admits a node to the membership and gracefully migrates the
// slots the rendezvous assignment now places on it.
func (f *fanout) AddNode(addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("cluster: closed")
	}
	if err := f.errLocked(); err != nil {
		return err
	}
	if f.memberLocked(addr) {
		return fmt.Errorf("cluster: %s is already a member", addr)
	}
	f.nodes = append(f.nodes, addr)
	if m := f.cfg.met; m != nil {
		m.Nodes.Set(int64(len(f.nodes)))
	}
	return f.rebalanceLocked()
}

// RemoveNode drains a member: its slots move gracefully (Bye, verified
// replay) to the survivors, then the address leaves the membership.
func (f *fanout) RemoveNode(addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("cluster: closed")
	}
	if err := f.errLocked(); err != nil {
		return err
	}
	if !f.memberLocked(addr) {
		return fmt.Errorf("cluster: %s is not a member", addr)
	}
	if len(f.nodes) == 1 {
		return fmt.Errorf("cluster: cannot remove the last node")
	}
	f.removeAddrLocked(addr)
	return f.rebalanceLocked()
}
