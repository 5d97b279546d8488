// Package remote implements monitor.Runtime over the wire protocol: a
// monitored program embeds a Client instead of an in-process engine, and
// its events are monitored by a remote rvserve (internal/server) session.
//
// A client is one Front over one sink. The Front is the ref-level half —
// the local copy of the spec, the remote-ID table that turns the IDs in a
// verdict back into the caller's refs, and the shutdown state — and exists
// once: this package's Client is a Front over a wire.Producer, and the
// cluster tier's Client is the same Front over its fanout of Producers.
// Events and deaths are ordinary buffered records that leave the process a
// write block at a time, after a bounded linger on a quiet stream, or when
// a sync operation or an empty credit window needs the server to act (see
// wire.Producer); verdicts and flow-control credit arrive on a background
// goroutine.
// Because the network has no weak references, parameter-object deaths are
// reported explicitly with Free. On the server a Free kills the session's
// counterpart objects, which is the death signal the paper's coenable-set
// monitor GC consumes. A death is a position in the trace and the stream
// is ordered, so the free frame's place among the event frames is that
// position whenever the bytes happen to be sent: the server positions the
// death in its backend's stream before killing the objects, every event
// sent before the Free observes the objects alive, and per-slice verdicts
// and counters match an in-process replay of the same stream exactly (see
// the oracle tests in this package).
//
// Concurrency: all Runtime methods are safe for concurrent use. The
// OnVerdict handler runs on the reader goroutine and must not call back
// into the Client. Dispatch blocks when the server's credit window is
// exhausted — that is the protocol-level backpressure of a backend that
// cannot keep up.
//
// Memory: the Client keeps a table entry per object it has sent while some
// engine behind the session may still name the object in a verdict, so
// that every verdict — a late one about a dead object too (the alldead and
// none GC policies keep monitors past their objects' deaths, and any
// verdict of an event sent before a Free may arrive after it) — carries the
// caller's own refs. The server tells it when that ends: each lane of the
// session's backend (an engine — the server's one, a shard, a cluster
// slot) sends a Release for a freed ID once it holds no record of the
// object, behind every verdict it sent before. The object's first Free
// marks every lane as still holding it, each lane's release clears its
// mark, and the entry goes with the last one. So after a Flush the table
// holds the objects some engine still records — the live ones, and dead
// ones that monitors still bind — and after Close it holds nothing.
package remote

import (
	"fmt"
	"net"
	"sync"

	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/spec"
	"rvgo/internal/wire"
)

// Options configures a session.
type Options struct {
	// Prop names a property from the server's built-in library. Exactly
	// one of Prop and SpecSource must be set.
	Prop string
	// SpecSource is .rv specification source compiled by both sides; it
	// must define exactly one property.
	SpecSource string
	// GC is the monitor GC policy for the session's backend.
	GC monitor.GCPolicy
	// Avoid is the creation-avoidance mode for the session's engine(s).
	// Static guards only: profiles are engine-local and do not cross the
	// wire.
	Avoid monitor.AvoidMode
	// Shards selects the server-side backend: 1 = sequential engine,
	// >1 = sharded runtime, 0 = server default.
	Shards int
	// OnVerdict receives goal verdicts, serialized, in per-slice order. It
	// runs on the reader goroutine and must not call back into the Client.
	OnVerdict func(monitor.Verdict)
}

// Front is the ref-level half of a monitoring client, embedded by Client
// and by the cluster tier's Client. It works in refs above and IDs below:
// EventIDs enters the objects an event sends, Arm marks a freed one as held
// by every lane, Release clears a lane's mark and DeliverVerdict turns a
// verdict's IDs back into the refs.
// Each client implements Dispatch (and Free) itself, against its concrete
// sink type: handing Dispatch's stack-resident ID vector to the sink
// through an interface (or a type parameter) makes it escape — one
// allocation per event — where the concrete call costs none. Everything
// around the two calls is the Front's.
type Front struct {
	spec      *monitor.Spec
	kind      byte   // wire.SpecProp or wire.SpecSource
	ref       string // the property name / .rv source the peer compiles
	onVerdict func(monitor.Verdict)

	// tmu guards the remote-ID table used to reconstruct verdict
	// instances and the mask of the session's lanes (0 when the session
	// releases nothing).
	tmu   sync.Mutex
	table map[uint64]entry
	lanes uint64

	// smu guards the shutdown state.
	smu    sync.Mutex
	closed bool
	final  monitor.Stats // settled counters, cached for Stats after Close
}

// NewFront compiles the client-side copy of the spec — from the same
// reference the peer receives, exactly one of prop (a library name) and
// source (.rv text) — and builds a client's front.
func NewFront(prop, source string, onVerdict func(monitor.Verdict)) (*Front, error) {
	local, kind, ref, err := resolveSpec(prop, source)
	if err != nil {
		return nil, err
	}
	return &Front{spec: local, kind: kind, ref: ref, onVerdict: onVerdict,
		table: map[uint64]entry{}}, nil
}

// entry is an object's table entry: the caller's ref and, once the object
// is freed, the lanes that may still name it in a verdict (0 before its
// Free).
type entry struct {
	ref   heap.Ref
	lanes uint64
}

// SetLanes sets the number of lanes behind the session (1 to
// wire.MaxReleaseLanes), whose releases free a table entry; the sink calls
// it before the first Free.
func (f *Front) SetLanes(n int) {
	f.tmu.Lock()
	f.lanes = 1<<uint(n) - 1
	f.tmu.Unlock()
}

// resolveSpec compiles the client-side copy of the spec.
func resolveSpec(prop, source string) (*monitor.Spec, byte, string, error) {
	switch {
	case prop != "" && source != "":
		return nil, 0, "", fmt.Errorf("remote: set exactly one of Prop and SpecSource")
	case prop != "":
		s, err := props.Build(prop)
		return s, wire.SpecProp, prop, err
	case source != "":
		s, err := spec.CompileOne(source)
		return s, wire.SpecSource, source, err
	}
	return nil, 0, "", fmt.Errorf("remote: set one of Prop and SpecSource")
}

// Hello is the frame that opens a session on the front's spec, under
// enable-set creation and the server's credit window.
func (f *Front) Hello(gc monitor.GCPolicy, avoid monitor.AvoidMode, shards int) wire.Hello {
	return wire.Hello{
		Version:  wire.Version,
		SpecKind: f.kind,
		Spec:     f.ref,
		GC:       byte(gc),
		Creation: byte(monitor.CreateEnable),
		Avoid:    byte(avoid),
		Shards:   uint64(shards),
	}
}

// Client is a remote monitoring session. It implements monitor.Runtime.
type Client struct {
	*Front
	p *wire.Producer
}

var _ monitor.Runtime = (*Client)(nil)

// Dial opens a monitoring session. The local spec is compiled from the
// same reference the server receives (library name or source), and the
// server's compiled event list is verified against it before Dial returns.
func Dial(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewSession(conn, opts)
}

// NewSession runs the session handshake over an established connection
// (Dial with a dialed TCP conn; tests may pass an in-process pipe).
func NewSession(conn net.Conn, opts Options) (*Client, error) {
	front, err := NewFront(opts.Prop, opts.SpecSource, opts.OnVerdict)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{Front: front, p: wire.NewProducer(conn, "remote")}
	ack, err := c.p.Handshake(nil, front.Hello(opts.GC, opts.Avoid, opts.Shards))
	if err == nil {
		if err = VerifyAck(front.spec, ack); err != nil {
			err = fmt.Errorf("remote: %w", err)
		}
	}
	if err != nil {
		c.p.Close()
		return nil, err
	}
	c.SetLanes(int(ack.Lanes))
	c.p.Start(c.DeliverVerdict, func(r wire.Release) { c.Release(int(r.Lane), r.IDs) }, nil)
	return c, nil
}

// VerifyAck checks that the peer compiled the same spec the client did:
// the negotiation half of the protocol. Divergence (library version skew,
// a different .rv compilation) would silently misroute symbols, so it is a
// hard error.
func VerifyAck(spec *monitor.Spec, a wire.HelloAck) error {
	if a.SpecName != spec.Name {
		return fmt.Errorf("spec negotiation: peer compiled %q, client %q", a.SpecName, spec.Name)
	}
	if len(a.Params) != len(spec.Params) {
		return fmt.Errorf("spec negotiation: peer has %d parameters, client %d", len(a.Params), len(spec.Params))
	}
	if len(a.Events) != len(spec.Events) {
		return fmt.Errorf("spec negotiation: peer has %d events, client %d", len(a.Events), len(spec.Events))
	}
	for i, ev := range spec.Events {
		if a.Events[i].Name != ev.Name || param.Set(a.Events[i].Params) != ev.Params {
			return fmt.Errorf("spec negotiation: event %d is %s%v on the peer, %s%v locally",
				i, a.Events[i].Name, param.Set(a.Events[i].Params).Members(), ev.Name, ev.Params.Members())
		}
	}
	return nil
}

// DeliverVerdict reconstructs the instance from the client's own refs,
// keeps the wire IDs as its Key, and invokes the handler. The sink calls
// it, serialized, from its reader goroutine(s).
func (f *Front) DeliverVerdict(v wire.Verdict) {
	if f.onVerdict == nil {
		return
	}
	inst := param.Empty()
	key := param.Key{Mask: param.Set(v.Mask)}
	f.tmu.Lock()
	k := 0
	for m := key.Mask; m != 0; m = m.Rest() {
		i := m.First()
		key.IDs[i] = v.IDs[k]
		ref := f.table[v.IDs[k]].ref
		if ref == nil {
			ref = ghostRef(v.IDs[k])
		}
		inst = inst.Bind(i, ref)
		k++
	}
	f.tmu.Unlock()
	var sym int
	if v.Sym >= 0 && v.Sym < len(f.spec.Events) {
		sym = v.Sym
	}
	f.onVerdict(monitor.Verdict{
		Spec: f.spec,
		Sym:  sym,
		Cat:  logic.Category(v.Cat),
		Inst: inst,
		Key:  key,
	})
}

// HeldRefs is the number of the caller's objects the table holds refs to
// (tests, diagnostics).
func (f *Front) HeldRefs() int {
	f.tmu.Lock()
	defer f.tmu.Unlock()
	return len(f.table)
}

// Spec implements monitor.Runtime.
func (f *Front) Spec() *monitor.Spec { return f.spec }

// EventIDs appends to ids the remote IDs of the objects theta binds for
// event sym, in ascending parameter order — the event's wire form — and
// enters each first-seen object into the table, where it stays until every
// lane has released it after its Free, so a late verdict keeps its
// original identities.
func (f *Front) EventIDs(ids []uint64, sym int, theta param.Instance) []uint64 {
	f.tmu.Lock()
	for pm := f.spec.Events[sym].Params; pm != 0; pm = pm.Rest() {
		ref := theta.Value(pm.First())
		id := ref.ID()
		ids = append(ids, id)
		if _, ok := f.table[id]; !ok {
			f.table[id] = entry{ref: ref}
		}
	}
	f.tmu.Unlock()
	return ids
}

// Arm marks a freed object as held by every lane, before its free leaves
// for the server: its entry goes once each lane has released it. An object
// the client never sent has no entry, and a second Free re-arms nothing.
func (f *Front) Arm(id uint64) {
	f.tmu.Lock()
	if e, ok := f.table[id]; ok && e.lanes == 0 {
		e.lanes = f.lanes
		f.table[id] = e
	}
	f.tmu.Unlock()
}

// Release clears lane's mark on the objects ids names, dropping each entry
// no lane holds any more. The sink calls it, serialized with DeliverVerdict
// and behind the lane's earlier verdicts; an ID the table lacks, or one the
// lane already released (a cluster handoff replays a slot's frees), is
// skipped.
func (f *Front) Release(lane int, ids []uint64) { f.ReleaseLanes(1<<uint(lane), ids) }

// ReleaseLanes is Release for every lane in the mask lanes at once: a
// cluster fanout releases a freed object itself on all the slots its
// records never went to.
func (f *Front) ReleaseLanes(lanes uint64, ids []uint64) {
	f.tmu.Lock()
	for _, id := range ids {
		if e, ok := f.table[id]; ok && e.lanes&lanes != 0 {
			if e.lanes &^= lanes; e.lanes == 0 {
				delete(f.table, id)
			} else {
				f.table[id] = e
			}
		}
	}
	f.tmu.Unlock()
}

// Shutdown is a client's Close: the first call marks the session closed,
// runs settle — the sink's orderly shutdown — and caches the final counters
// it returns for Stats; later calls do nothing. Once settle has returned no
// verdict can arrive, so the table is emptied: a closed client kept for its
// Stats pins none of the caller's objects.
func (f *Front) Shutdown(settle func() monitor.Stats) {
	f.smu.Lock()
	first := !f.closed
	f.closed = true
	f.smu.Unlock()
	if first {
		st := settle()
		f.tmu.Lock()
		clear(f.table)
		f.tmu.Unlock()
		f.smu.Lock()
		f.final = st
		f.smu.Unlock()
	}
}

// Final returns the cached final counters and whether the session closed.
func (f *Front) Final() (monitor.Stats, bool) {
	f.smu.Lock()
	defer f.smu.Unlock()
	return f.final, f.closed
}

// Err returns the sticky session error, if any: connection loss, a server
// Error frame, or a protocol violation. Runtime methods degrade to no-ops
// once it is set.
func (c *Client) Err() error { return c.p.Err() }

// Dispatch implements monitor.Runtime: the event is written to the
// pipeline (no round trip). It blocks while the server's credit window is
// exhausted.
func (c *Client) Dispatch(sym int, theta param.Instance) {
	var buf [param.MaxParams]uint64
	ids := c.EventIDs(buf[:0], sym, theta)
	c.p.Acquire(1)
	c.p.Event(sym, ids)
}

// Free reports a parameter object's death to the server, in call order
// relative to Dispatch: every event already dispatched observes the
// object alive, every later event must not mention it. This is the
// explicit, protocol-level replacement for the weak-reference death signal
// the in-process backends get from the heap. It implements
// monitor.Runtime's death positioning: the free frame's place in the
// ordered stream is the death's position in the trace, and the server
// positions it in the session's backend before killing the object. The
// local ref only feeds verdict reconstruction, where dead identities are
// expected, so the caller may kill it as soon as Free returns; the client
// lets go of it once the server has released it. The frame leaves with its
// write block, or within the Producer's linger bound when the pipeline
// goes quiet.
func (c *Client) Free(ref heap.Ref) {
	id := [1]uint64{ref.ID()}
	c.Arm(id[0])
	c.p.Free(id[:])
}

// roundTrip issues a token frame and waits for its ack. Returns the zero
// Msg when the session is dead or closed.
func (c *Client) roundTrip(t byte) (wire.Msg, bool) {
	if _, closed := c.Final(); closed {
		return wire.Msg{}, false
	}
	return c.p.RoundTrip(t)
}

// Barrier implements monitor.Runtime: it returns once the server has
// processed every event dispatched before the call (and delivered every
// verdict those events produced — the ack is ordered behind the verdicts
// on the stream).
func (c *Client) Barrier() {
	c.roundTrip(wire.TBarrier)
}

// Flush implements monitor.Runtime: a remote full expunge/compaction pass,
// settling the Figure 10 counters.
func (c *Client) Flush() {
	c.roundTrip(wire.TFlush)
}

// Stats implements monitor.Runtime: a remote counter snapshot. After Close
// it returns the final settled counters.
func (c *Client) Stats() monitor.Stats {
	if st, closed := c.Final(); closed {
		return st
	}
	msg, ok := c.p.RoundTrip(wire.TStatsReq)
	if !ok {
		return monitor.Stats{}
	}
	return msg.Stats.Counters()
}

// Close implements monitor.Runtime: orderly shutdown. The server flushes
// the session's backend and returns the final counters, which remain
// available through Stats. Close is idempotent.
func (c *Client) Close() {
	c.Shutdown(func() monitor.Stats {
		st, _ := c.p.Bye() // zero when the session died first
		c.p.Close()
		return st.Counters()
	})
}

// ghostRef stands in for a table miss during verdict reconstruction (a
// verdict naming an object this client never sent — possible only with a
// misbehaving server).
type ghostRef uint64

func (g ghostRef) ID() uint64    { return uint64(g) }
func (g ghostRef) Alive() bool   { return false }
func (g ghostRef) Label() string { return fmt.Sprintf("r%d", uint64(g)) }
