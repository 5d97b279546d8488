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
// Memory: the Client keeps one table entry per distinct object it has
// sent, including dead ones, so that late verdicts mentioning a dead
// object (possible under the alldead/none GC policies, whose monitors
// outlive their objects) can be reconstructed with the original refs —
// the same lifetime a dead heap.Ref's identity has in process.
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
	// Creation is the monitor creation strategy (CreateEnable unless the
	// session is a single-shard semantic oracle).
	Creation monitor.CreationStrategy
	// Avoid is the creation-avoidance mode for the session's engine(s).
	// Static guards only: profiles are engine-local and do not cross the
	// wire.
	Avoid monitor.AvoidMode
	// Shards selects the server-side backend: 1 = sequential engine,
	// >1 = sharded runtime, 0 = server default.
	Shards int
	// Window caps the event-credit window (0 = accept the server's).
	Window int
	// OnVerdict receives goal verdicts, serialized, in per-slice order. It
	// runs on the reader goroutine and must not call back into the Client.
	OnVerdict func(monitor.Verdict)
}

// Front is the ref-level half of a monitoring client, embedded by Client
// and by the cluster tier's Client. It works in refs above and IDs below.
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
	// instances.
	tmu   sync.Mutex
	table map[uint64]heap.Ref

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
	return &Front{spec: local, kind: kind, ref: ref, onVerdict: onVerdict, table: map[uint64]heap.Ref{}}, nil
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

// Hello is the frame that opens a session on the front's spec.
func (f *Front) Hello(gc monitor.GCPolicy, creation monitor.CreationStrategy, avoid monitor.AvoidMode, shards, window int) wire.Hello {
	return wire.Hello{
		Version:  wire.Version,
		SpecKind: f.kind,
		Spec:     f.ref,
		GC:       byte(gc),
		Creation: byte(creation),
		Avoid:    byte(avoid),
		Shards:   uint64(shards),
		Window:   uint64(window),
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
	c := &Client{}
	front, err := NewFront(opts.Prop, opts.SpecSource, opts.OnVerdict)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.Front, c.p = front, wire.NewProducer(conn, "remote")
	ack, err := c.p.Handshake(nil, front.Hello(opts.GC, opts.Creation, opts.Avoid, opts.Shards, opts.Window))
	if err == nil {
		if err = VerifyAck(front.spec, ack); err != nil {
			err = fmt.Errorf("remote: %w", err)
		}
	}
	if err != nil {
		c.p.Close()
		return nil, err
	}
	c.p.Start(c.DeliverVerdict, nil)
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

// DeliverVerdict reconstructs the instance from the client's own refs and
// invokes the handler. The sink calls it, serialized, from its reader
// goroutine(s).
func (f *Front) DeliverVerdict(v wire.Verdict) {
	if f.onVerdict == nil {
		return
	}
	inst := param.Empty()
	mask := param.Set(v.Mask)
	f.tmu.Lock()
	for k, p := range mask.Members() {
		ref, ok := f.table[v.IDs[k]]
		if !ok {
			ref = ghostRef(v.IDs[k])
		}
		inst = inst.Bind(p, ref)
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
	})
}

// Spec implements monitor.Runtime.
func (f *Front) Spec() *monitor.Spec { return f.spec }

// EventIDs appends to ids the remote IDs of the objects theta binds for
// event sym, in ascending parameter order — the event's wire form — and
// enters each first-seen object into the table. The table keeps one entry
// per distinct object ever sent, dead ones included, so a late verdict
// keeps its original identities.
func (f *Front) EventIDs(ids []uint64, sym int, theta param.Instance) []uint64 {
	f.tmu.Lock()
	for pm := f.spec.Events[sym].Params; pm != 0; pm = pm.Rest() {
		ref := theta.Value(pm.First())
		id := ref.ID()
		ids = append(ids, id)
		if _, ok := f.table[id]; !ok {
			f.table[id] = ref
		}
	}
	f.tmu.Unlock()
	return ids
}

// RefIDs appends the remote IDs of refs to ids: a free's wire form.
func RefIDs(ids []uint64, refs []heap.Ref) []uint64 {
	for _, ref := range refs {
		ids = append(ids, ref.ID())
	}
	return ids
}

// Shutdown is a client's Close: the first call marks the session closed,
// runs settle — the sink's orderly shutdown — and caches the final counters
// it returns for Stats; later calls do nothing.
func (f *Front) Shutdown(settle func() monitor.Stats) {
	f.smu.Lock()
	first := !f.closed
	f.closed = true
	f.smu.Unlock()
	if first {
		st := settle()
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

// Free reports parameter-object deaths to the server, in call order
// relative to Dispatch: every event already dispatched observes the
// objects alive, every later event must not mention them. This is the
// explicit, protocol-level replacement for the weak-reference death signal
// the in-process backends get from the heap. It implements
// monitor.Runtime's death positioning: the free frame's place in the
// ordered stream is the death's position in the trace, and the server
// positions it in the session's backend before killing the objects. The
// local refs only feed verdict reconstruction, where dead identities are
// expected, so the caller may kill them as soon as Free returns. The frame
// leaves with its write block, or within the Producer's linger bound when
// the pipeline goes quiet.
func (c *Client) Free(refs ...heap.Ref) {
	if len(refs) == 0 {
		return
	}
	var buf [8]uint64 // a death rarely names more; append spills the rest
	c.p.Free(RefIDs(buf[:0], refs))
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
