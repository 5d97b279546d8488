// Package remote implements monitor.Runtime over the wire protocol: a
// monitored program embeds a Client instead of an in-process engine, and
// its events are monitored by a remote rvserve (internal/server) session.
//
// The Client is a wire.Producer plus the ref tables: events and deaths are
// ordinary buffered records that leave the process a write block at a
// time, after a bounded linger on a quiet stream, or when a sync operation
// or an empty credit window needs the server to act (see wire.Producer);
// verdicts and flow-control credit arrive on a background goroutine.
// Because the network has no weak references, parameter-object deaths are
// reported explicitly with Free. On the server a Free kills the session's
// counterpart objects, which is the death signal the paper's coenable-set
// monitor GC consumes. A death is a position in the trace and the stream
// is ordered, so the free frame's place among the event frames is that
// position whenever the bytes happen to be sent: the server barriers its
// runtime before applying it, every event sent before the Free observes
// the objects alive, and per-slice verdicts and counters match an
// in-process replay of the same stream exactly (see the oracle tests in
// this package).
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

// Client is a remote monitoring session. It implements monitor.Runtime.
type Client struct {
	spec *monitor.Spec
	opts Options
	p    *wire.Producer

	// tmu guards the remote-ID table used to reconstruct verdict
	// instances.
	tmu   sync.Mutex
	table map[uint64]heap.Ref

	// smu guards the shutdown state.
	smu    sync.Mutex
	closed bool
	final  monitor.Stats // settled counters from ByeAck
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
	local, kind, ref, err := resolveSpec(opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		spec:  local,
		opts:  opts,
		p:     wire.NewProducer(conn, "remote"),
		table: map[uint64]heap.Ref{},
	}
	ack, err := c.p.Handshake(nil, wire.Hello{
		Version:  wire.Version,
		SpecKind: kind,
		Spec:     ref,
		GC:       byte(opts.GC),
		Creation: byte(opts.Creation),
		Avoid:    byte(opts.Avoid),
		Shards:   uint64(opts.Shards),
		Window:   uint64(opts.Window),
	})
	if err == nil {
		err = c.verifyAck(ack)
	}
	if err != nil {
		c.p.Close()
		return nil, err
	}
	c.p.Start(c.deliverVerdict, nil)
	return c, nil
}

// resolveSpec compiles the client-side copy of the spec.
func resolveSpec(opts Options) (*monitor.Spec, byte, string, error) {
	switch {
	case opts.Prop != "" && opts.SpecSource != "":
		return nil, 0, "", fmt.Errorf("remote: set exactly one of Prop and SpecSource")
	case opts.Prop != "":
		s, err := props.Build(opts.Prop)
		if err != nil {
			return nil, 0, "", err
		}
		return s, wire.SpecProp, opts.Prop, nil
	case opts.SpecSource != "":
		s, err := spec.CompileOne(opts.SpecSource)
		if err != nil {
			return nil, 0, "", err
		}
		return s, wire.SpecSource, opts.SpecSource, nil
	}
	return nil, 0, "", fmt.Errorf("remote: set one of Prop and SpecSource")
}

// verifyAck checks that the server compiled the same spec we did: the
// negotiation half of the protocol. Divergence (library version skew, a
// different .rv compilation) would silently misroute symbols, so it is a
// hard error.
func (c *Client) verifyAck(a wire.HelloAck) error {
	if a.SpecName != c.spec.Name {
		return fmt.Errorf("remote: spec negotiation: server compiled %q, client %q", a.SpecName, c.spec.Name)
	}
	if len(a.Params) != len(c.spec.Params) {
		return fmt.Errorf("remote: spec negotiation: server has %d parameters, client %d", len(a.Params), len(c.spec.Params))
	}
	if len(a.Events) != len(c.spec.Events) {
		return fmt.Errorf("remote: spec negotiation: server has %d events, client %d", len(a.Events), len(c.spec.Events))
	}
	for i, ev := range c.spec.Events {
		if a.Events[i].Name != ev.Name || param.Set(a.Events[i].Params) != ev.Params {
			return fmt.Errorf("remote: spec negotiation: event %d is %s%v on the server, %s%v locally",
				i, a.Events[i].Name, param.Set(a.Events[i].Params).Members(), ev.Name, ev.Params.Members())
		}
	}
	return nil
}

// deliverVerdict reconstructs the instance from the client's own refs and
// invokes the handler.
func (c *Client) deliverVerdict(v wire.Verdict) {
	if c.opts.OnVerdict == nil {
		return
	}
	inst := param.Empty()
	mask := param.Set(v.Mask)
	c.tmu.Lock()
	for k, p := range mask.Members() {
		ref, ok := c.table[v.IDs[k]]
		if !ok {
			ref = ghostRef(v.IDs[k])
		}
		inst = inst.Bind(p, ref)
	}
	c.tmu.Unlock()
	var sym int
	if v.Sym >= 0 && v.Sym < len(c.spec.Events) {
		sym = v.Sym
	}
	c.opts.OnVerdict(monitor.Verdict{
		Spec: c.spec,
		Sym:  sym,
		Cat:  logic.Category(v.Cat),
		Inst: inst,
	})
}

// Err returns the sticky session error, if any: connection loss, a server
// Error frame, or a protocol violation. Runtime methods degrade to no-ops
// once it is set.
func (c *Client) Err() error { return c.p.Err() }

// Spec implements monitor.Runtime.
func (c *Client) Spec() *monitor.Spec { return c.spec }

// Emit implements monitor.Runtime.
func (c *Client) Emit(sym int, vals ...heap.Ref) {
	c.Dispatch(sym, param.Of(c.spec.Events[sym].Params, vals...))
}

// EmitNamed implements monitor.Runtime.
func (c *Client) EmitNamed(name string, vals ...heap.Ref) error {
	sym, ok := c.spec.Symbol(name)
	if !ok {
		return fmt.Errorf("remote: spec %q has no event %q", c.spec.Name, name)
	}
	if want := c.spec.Events[sym].Params.Count(); len(vals) != want {
		return fmt.Errorf("remote: event %q takes %d values, got %d", name, want, len(vals))
	}
	c.Emit(sym, vals...)
	return nil
}

// Dispatch implements monitor.Runtime: the event is written to the
// pipeline (no round trip). It blocks while the server's credit window is
// exhausted.
func (c *Client) Dispatch(sym int, theta param.Instance) {
	var buf [param.MaxParams]uint64
	ids := buf[:0]
	c.tmu.Lock()
	for pm := c.spec.Events[sym].Params; pm != 0; pm = pm.Rest() {
		ref := theta.Value(pm.First())
		id := ref.ID()
		ids = append(ids, id)
		if _, ok := c.table[id]; !ok {
			c.table[id] = ref
		}
	}
	c.tmu.Unlock()

	c.p.Acquire(1)
	c.p.Event(sym, ids)
}

// Free reports parameter-object deaths to the server, in call order
// relative to Dispatch: every event already dispatched observes the
// objects alive, every later event must not mention them. This is the
// explicit, protocol-level replacement for the weak-reference death signal
// the in-process backends get from the heap. It implements
// monitor.Runtime's synchronous death positioning: the free frame's place
// in the ordered stream is the death's position in the trace, and the
// server barriers the session's backend before applying it. The frame
// leaves with its write block, or within the Producer's linger bound when
// the pipeline goes quiet.
func (c *Client) Free(refs ...heap.Ref) {
	if len(refs) == 0 {
		return
	}
	var buf [8]uint64 // a death rarely names more; append spills the rest
	ids := buf[:0]
	for _, ref := range refs {
		ids = append(ids, ref.ID())
	}
	c.p.Free(ids)
}

// FreeAsync implements monitor.Runtime's pipelined death positioning. For
// a remote session the positioned point is the free frame's place in the
// write pipeline — the server barriers its backend when the frame arrives —
// so the local die runs as soon as the frame is written: the local refs
// only feed verdict reconstruction, where dead identities are expected
// (that is the whole point of monitor GC).
func (c *Client) FreeAsync(die func(), refs ...heap.Ref) {
	c.Free(refs...)
	if die != nil {
		die()
	}
}

// roundTrip issues a token frame and waits for its ack. Returns the zero
// Msg when the session is dead or closed.
func (c *Client) roundTrip(t byte) (wire.Msg, bool) {
	c.smu.Lock()
	closed := c.closed
	c.smu.Unlock()
	if closed {
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
	c.smu.Lock()
	if c.closed {
		st := c.final
		c.smu.Unlock()
		return st
	}
	c.smu.Unlock()
	msg, ok := c.roundTrip(wire.TStatsReq)
	if !ok {
		return monitor.Stats{}
	}
	return fromWireStats(msg.Stats)
}

// Close implements monitor.Runtime: orderly shutdown. The server flushes
// the session's backend and returns the final counters, which remain
// available through Stats. Close is idempotent.
func (c *Client) Close() {
	c.smu.Lock()
	if c.closed {
		c.smu.Unlock()
		return
	}
	c.closed = true
	c.smu.Unlock()

	if st, ok := c.p.Bye(); ok {
		c.smu.Lock()
		c.final = fromWireStats(st)
		c.smu.Unlock()
	}
	c.p.Close()
}

// ghostRef stands in for a table miss during verdict reconstruction (a
// verdict naming an object this client never sent — possible only with a
// misbehaving server).
type ghostRef uint64

func (g ghostRef) ID() uint64    { return uint64(g) }
func (g ghostRef) Alive() bool   { return false }
func (g ghostRef) Label() string { return fmt.Sprintf("r%d", uint64(g)) }

func fromWireStats(s wire.Stats) monitor.Stats {
	return monitor.Stats{
		Events:       s.Events,
		Created:      s.Created,
		Flagged:      s.Flagged,
		Collected:    s.Collected,
		GoalVerdicts: s.GoalVerdicts,
		Steps:        s.Steps,
		Avoided:      s.Avoided,
		Live:         s.Live,
		PeakLive:     s.PeakLive,
	}
}
