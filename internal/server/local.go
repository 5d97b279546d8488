// local.go: the backend of a monitoring server's sessions — the session is
// monitored here, by an engine (or sharded runtime) of its own.
//
// A client names parameter objects with integer IDs, and the backend hands
// those IDs straight to its runtime (DispatchIDs): the engine's object
// table keeps one record per ID, with its death bit, and nothing else stands
// for the object — no heap object, no second ID map. A protocol Free is the
// network replacement for a cleared weak reference: FreeIDs applies the
// death, which is exactly the signal the coenable-set GC consumes. Monitor
// lifetime here is governed entirely by these protocol-level deaths; no
// amount of server-side garbage collection can reclaim a monitor whose
// client never declares its objects dead.
//
// The backend itself keeps one bit per freed ID, in 64-bit words keyed by
// id>>6. The bit is what the use-after-free contract costs — an event
// naming a freed ID must be refused, never silently revived, however long
// ago the free was and whether or not an event ever mentioned the ID — so a
// session holds its runtime's records plus one bit per freed ID. The bit
// also keeps a repeated free from reaching the runtime, so each engine
// frees each ID once. A late verdict (the alldead/none GC policies keep
// monitors over dead objects) still carries its IDs: the engine's object
// table holds the record while a θ binds it, and the record's ID is the
// remote ID.
//
// The backend's lanes are its engines: one, or one per shard. Each engine
// releases a freed ID once it holds no record of it (SetOnRelease), and
// the release goes to the session (Session.Release) under the engine's
// lane, behind the engine's verdicts.
//
// A Free's place in the session's ordered stream is the death's position
// in the trace — it does not matter when the producer's write block
// carrying it left the client. The sequential engine applies it at once,
// behind every earlier event; the sharded runtime queues one free record
// per shard, no waiting on either. So every event sent before the Free
// observes the objects alive: per-session counters and verdicts are
// trace-faithful and equal to a local replay of the same stream (see
// internal/remote's oracle tests).
//
// Ingestion into a sharded runtime first tries the non-blocking
// TryDispatchIDs; when the target mailbox refuses, Event falls back to the
// blocking DispatchIDs — which is the stall the front turns into withheld
// credit.
package server

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"rvgo/internal/logic"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/shard"
	"rvgo/internal/trace"
	"rvgo/internal/wire"
)

// local is one session's own monitor: a runtime fed by ID, and the freed
// IDs.
type local struct {
	s *Session

	rt  monitor.IDRuntime
	srt *shard.Runtime  // non-nil when the backend is sharded
	rec *trace.Recorder // non-nil with Options.FlightWindow or RecordDir

	// freed holds one bit per freed ID, word id>>6, bit id&63. Only the
	// session goroutine touches it.
	freed map[uint64]uint64

	// vskip is the number of verdict forwards still to suppress inside a
	// handoff bracket (node mode: the session carries a router's NodeHello,
	// which is what authorizes the handoff frames) — the replayed journal
	// regenerates verdicts the upstream client already received, and the
	// engine must count them (its settled counters are checked against the
	// donor's) without the router delivering them twice.
	vskip atomic.Int64

	// Read by the /statusz scraper.
	stalls  atomic.Uint64
	stallNs atomic.Uint64

	vids []uint64 // verdict-ID scratch (onVerdict is serialized)
	fids []uint64 // the first frees of one Free (session goroutine)
}

// openLocal builds the backend a session's Hello asks for.
func openLocal(s *Session) (Backend, error) {
	srv, compiled, h := s.srv, s.Spec, s.Hello
	shards := int(h.Shards)
	if shards == 0 {
		shards = srv.opts.DefaultShards
	}
	if shards < 1 || shards > srv.opts.MaxShards {
		return nil, fmt.Errorf("shards %d out of range 1..%d", shards, srv.opts.MaxShards)
	}
	b := &local{s: s, freed: map[uint64]uint64{}}
	opts := h.Options()
	opts.OnVerdict = b.onVerdict
	opts.Metrics = metrics.NewEngineSeries(srv.reg, compiled.Name, opts.GC.String())
	if shards > 1 {
		srt, err := shard.New(compiled, shard.Options{
			Options: opts, Shards: shards,
			OnRelease:       func(lanes uint64, ids []uint64) { s.Release(lanes, ids...) },
			MetricsRegistry: srv.reg,
		})
		if err != nil {
			return nil, err
		}
		b.rt, b.srt = srt, srt
	} else {
		eng, err := monitor.New(compiled, opts)
		if err != nil {
			return nil, err
		}
		eng.SetOnRelease(func(id uint64) { s.Release(1, id) })
		b.rt = eng
	}
	if window, dir := srv.opts.FlightWindow, srv.opts.RecordDir; window > 0 || dir != "" {
		var path string
		var wo trace.WriterOptions
		if dir != "" {
			path = filepath.Join(dir, fmt.Sprintf("session-%d.rvt", s.ID))
			_ = trace.EnsureDir(path) // a directory it cannot make fails the create
			wo.Metrics = metrics.NewTraceSeries(srv.reg, compiled.Name)
		}
		b.rec = trace.NewRecorder(compiled, window, path, wo)
	}
	return b, nil
}

// Lanes implements Backend: the session's engines.
func (b *local) Lanes() int {
	if b.srt != nil {
		return b.srt.Shards()
	}
	return 1
}

// Event dispatches one remote event into the runtime, unless it names a
// freed ID.
func (b *local) Event(sym int, ids []uint64) error {
	for _, id := range ids {
		if b.freed[id>>6]&(1<<(id&63)) != 0 {
			return fmt.Errorf("event %q uses remote object %d after its free", b.s.Spec.Events[sym].Name, id)
		}
	}
	// Record before dispatch: on the sequential backend the verdict
	// handler runs inside Dispatch, and the window it dumps must include
	// the event that triggered it.
	if b.rec != nil {
		b.rec.Event(sym, ids)
	}
	if b.srt != nil {
		// Non-blocking first: a refusal means the target mailbox is full,
		// and the blocking fallback is precisely the backpressure — the
		// session reads no further frames (and grants no further credit)
		// until the shard drains.
		if !b.srt.TryDispatchIDs(sym, ids) {
			b.stallDispatch(sym, ids)
		}
	} else {
		b.rt.DispatchIDs(sym, ids)
	}
	return nil
}

// stallDispatch is the blocking fallback behind a TryDispatchIDs refusal:
// the session reader stalls here, withholding credit, until the shard
// mailbox drains. The stall is counted and timed, and a stall still
// blocked after one second logs a structured warning with the withheld
// credit and the backlog — the "why is my session stuck" diagnostic. The
// timer allocation is fine: this path is already blocking on a full
// mailbox.
func (b *local) stallDispatch(sym int, ids []uint64) {
	s := b.s
	s.series.CreditStalls.Inc()
	credits := s.ungrant
	start := time.Now()
	warn := time.AfterFunc(time.Second, func() {
		depths := b.srt.QueueDepths()
		deepest := 0
		for _, d := range depths {
			if d > deepest {
				deepest = d
			}
		}
		s.srv.logf("session %d: credit-starved >1s tenant=%s credits_withheld=%d mailbox_depth=%d shards=%d",
			s.ID, s.Spec.Name, credits, deepest, len(depths))
	})
	b.srt.DispatchIDs(sym, ids)
	warn.Stop()
	d := time.Since(start)
	s.series.StallSeconds.Observe(d.Seconds())
	b.stallNs.Add(uint64(d))
	b.stalls.Add(1)
}

// Free applies protocol-level object deaths at this point of the stream:
// every event sent before the Free is processed against the old liveness,
// and from here on the coenable-set GC may flag and collect every monitor
// whose ALIVENESS formula depended on the objects, exactly as if a weak
// reference had been cleared. IDs that never appeared in an event (dacapo
// workloads free far more objects than any one property mentions) cost the
// runtime one object-table miss (per shard, behind one batch record each).
// Each freed ID sets its bit in the freed set, whether or
// not an event mentioned it: an event naming the ID again is
// use-after-free and must be refused. An ID named twice, in one Free or in
// two, dies once: only its first free reaches the runtime.
func (b *local) Free(ids []uint64) error {
	if b.rec != nil {
		b.rec.Free(ids)
	}
	first := b.fids[:0]
	for _, id := range ids {
		if w, bit := id>>6, uint64(1)<<(id&63); b.freed[w]&bit == 0 {
			b.freed[w] |= bit
			first = append(first, id)
		}
	}
	b.fids = first
	b.rt.FreeIDs(first)
	return nil
}

func (b *local) Barrier() error                { b.rt.Barrier(); return nil }
func (b *local) Flush() error                  { b.rt.Flush(); return nil }
func (b *local) Stats() (monitor.Stats, error) { return b.rt.Stats(), nil }

// Close settles and releases the runtime, then seals the recorder, if any
// — in that order, so the engine's final delta publication and the
// recording both land before the front lets the session go. A recording
// failure never interrupted the monitoring; it is logged here, once.
func (b *local) Close() (monitor.Stats, error) {
	b.rt.Flush()
	st := b.rt.Stats()
	b.rt.Close()
	if b.rec != nil {
		if err := b.rec.Close(); err != nil {
			b.s.srv.logf("session %d: recording stopped: %v", b.s.ID, err)
		}
	}
	return st, nil
}

// handoffBegin opens a handoff bracket: the next skip verdicts are replays.
func (b *local) handoffBegin(skip uint64) error {
	node := b.s.Node
	if node == nil {
		return fmt.Errorf("HandoffBegin on a session without a NodeHello")
	}
	b.vskip.Store(int64(skip))
	b.s.srv.logf("session %d: handoff begin (router %d slot %d, skipping %d verdicts)", b.s.ID, node.Router, node.Slot, skip)
	return nil
}

// handoffEnd closes the bracket: settle the replayed state, stop
// suppressing (a correct replay consumed the skip budget exactly; a
// leftover budget would silently swallow live verdicts), and return the
// counters the router verifies against the donor's ByeAck.
func (b *local) handoffEnd() (monitor.Stats, error) {
	if b.s.Node == nil {
		return monitor.Stats{}, fmt.Errorf("HandoffEnd on a session without a NodeHello")
	}
	b.rt.Flush()
	b.vskip.Store(0)
	b.s.srv.logf("session %d: handoff settled after %d events", b.s.ID, b.s.events.Load())
	return b.rt.Stats(), nil
}

// onVerdict forwards a goal verdict to the client. It is called from the
// session goroutine (sequential backend) or from shard workers (serialized
// by the shard runtime's verdict mutex) — never concurrently with itself,
// which is what lets it reuse the verdict-ID scratch.
func (b *local) onVerdict(v monitor.Verdict) {
	// Inside a handoff bracket the first vskip verdicts are replays the
	// upstream client already has; the engine counted them, the wire must
	// not carry them again. onVerdict invocations are serialized, so the
	// check-then-decrement pair never races itself.
	if b.vskip.Load() > 0 {
		b.vskip.Add(-1)
		return
	}
	b.vids = v.Key.AppendIDs(b.vids[:0])
	wv := wire.Verdict{Sym: v.Sym, Cat: string(v.Cat), Mask: uint64(v.Key.Mask), IDs: b.vids}
	b.s.Verdict(wv)
	if b.rec != nil && v.Cat != logic.Match {
		b.dumpWindow(wv)
	}
}

// dumpWindow logs the flight-recorder window behind a failure verdict:
// the recent events and protocol frees, oldest first, with the client's
// object IDs. onVerdict invocations are serialized, so the dump is one
// coherent block per verdict.
func (b *local) dumpWindow(v wire.Verdict) {
	win := b.rec.Window()
	if win == nil {
		return
	}
	events := b.s.Spec.Events
	var out []byte
	for _, e := range win {
		if e.Kind == trace.RingFree {
			out = fmt.Appendf(out, " #%d free%v", e.Seq, e.IDs[:e.N])
		} else if int(e.Sym) < len(events) {
			out = fmt.Appendf(out, " #%d %s%v", e.Seq, events[e.Sym].Name, e.IDs[:e.N])
		}
	}
	b.s.srv.logf("session %d: verdict %s on %v, flight window:%s", b.s.ID, v.Cat, v.IDs, string(out))
}
