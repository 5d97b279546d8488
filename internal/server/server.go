// Package server is the multi-tenant monitoring server: it accepts
// wire-protocol sessions over TCP and runs one monitor.Runtime per session
// — the paper's engine, deployed as a service.
//
// Each session owns a private spec registry entry (compiled from the
// client's Hello), its own monitoring backend (sequential engine or
// sharded runtime, chosen per session), a session-scoped simulated heap,
// and a remote-ID→object table. The table is the network replacement for
// weak references: a client names parameter objects with integer IDs, the
// server materializes one heap object per ID on first mention, and a
// protocol Free message kills the object — which is exactly the death
// signal the coenable-set GC consumes. Monitor lifetime on the server is
// governed entirely by these protocol-level deaths; no amount of server-
// side garbage collection can reclaim a monitor whose client never
// declares its objects dead, and nothing but the table keeps them alive.
//
// A Free's place in the session's ordered stream is the death's position
// in the trace — it does not matter when the producer's write block
// carrying it left the client. Before applying a Free the session barriers
// its runtime, so every event sent before the Free observes the objects
// alive: per-session counters and verdicts are trace-faithful and equal to
// a local replay of the same stream (see the client package's oracle
// tests).
//
// The ingest loop works a read block at a time: every frame already
// buffered is decoded and dispatched back to back, and the per-frame
// bookkeeping — event and free counters, the credit grant — is settled
// once per block (or before any frame that answers the client, so an ack
// never overtakes the counts it acknowledges).
//
// Flow control: sessions grant event credits (wire.Credit) as the backend
// actually accepts events. Ingestion into a sharded runtime first tries
// the non-blocking TryDispatch; when the target mailbox refuses, the
// session falls back to the blocking Dispatch — which stalls the session
// reader, withholds further credit, and so propagates the mailbox's
// backpressure to the remote producer at the protocol level.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
	"rvgo/internal/spec"
	"rvgo/internal/trace"
	"rvgo/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Window is the event-credit window granted to each session (default
	// 4096). A client may request a smaller one in its Hello.
	Window int
	// MaxShards caps the per-session backend size a client may request
	// (default 16; the cap exists because shards are goroutines the client
	// makes the server spawn).
	MaxShards int
	// DefaultShards is the backend when the client's Hello leaves the
	// choice to the server (Shards == 0). Default 1: the sequential
	// engine.
	DefaultShards int
	// Logf, when non-nil, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
	// FlightWindow, when > 0, gives each session a flight recorder of the
	// last n records (events and protocol frees); the window is dumped to
	// Logf whenever the session reports a non-match verdict — the recent-
	// event context of a failure, without recording whole sessions.
	FlightWindow int
	// RecordDir, when non-empty, records every session's event stream to a
	// persistent trace (<RecordDir>/session-<id>.rvt) for retroactive
	// querying. A recording failure is logged and disables recording for
	// that session; it never interrupts monitoring.
	RecordDir string
}

// Server accepts and runs monitoring sessions.
type Server struct {
	opts Options

	mu       sync.Mutex
	listener net.Listener
	sessions map[*session]struct{}
	nextID   uint64
	draining bool

	wg sync.WaitGroup

	// Aggregate counters across all sessions, past and present.
	events   atomic.Uint64
	verdicts atomic.Uint64
	accepted atomic.Uint64

	// reg is the server's metrics registry: every layer a session runs —
	// engine, shard runtime, trace recorder, and the server itself —
	// publishes into it, labeled by tenant (the session's spec name). It is
	// always live (series cost nothing until sessions intern them) and is
	// what DebugHandler scrapes.
	reg        *metrics.Registry
	sessActive *metrics.Gauge
	started    time.Time
}

// New builds a server.
func New(opts Options) *Server {
	if opts.Window <= 0 {
		opts.Window = 4096
	}
	if opts.MaxShards <= 0 {
		opts.MaxShards = 16
	}
	if opts.DefaultShards <= 0 {
		opts.DefaultShards = 1
	}
	s := &Server{opts: opts, sessions: map[*session]struct{}{}, reg: metrics.NewRegistry(), started: time.Now()}
	s.sessActive = metrics.SessionsActive(s.reg)
	return s
}

// Metrics returns the server's metrics registry (scraping, tests).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Stats is the server-wide aggregate view.
type Stats struct {
	ActiveSessions int
	TotalSessions  uint64
	Events         uint64
	Verdicts       uint64
}

// Stats returns the aggregate counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()
	return Stats{
		ActiveSessions: active,
		TotalSessions:  s.accepted.Load(),
		Events:         s.events.Load(),
		Verdicts:       s.verdicts.Load(),
	}
}

// Serve accepts sessions on l until the listener is closed (by Shutdown or
// Close). It returns nil on orderly shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: Serve after Shutdown")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.nextID++
		sess := &session{srv: s, id: s.nextID, conn: conn}
		s.sessions[sess] = struct{}{}
		s.accepted.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			sess.run()
			// The session leaves the map and the active gauge at one
			// point, under the lock Statusz lists sessions with: /metrics
			// and /statusz cannot disagree about a closing session.
			s.mu.Lock()
			delete(s.sessions, sess)
			if sess.ready.Load() {
				s.sessActive.Add(-1)
			}
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the server gracefully: it stops accepting, then waits up
// to timeout for active sessions to finish their streams (a client Bye or
// disconnect). Sessions still active at the deadline are force-closed.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// Close force-closes the listener and every active session.
func (s *Server) Close() { s.Shutdown(0) }

// session is one client connection: a spec, a backend, a heap, and the
// remote-ID table.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn

	wmu sync.Mutex // serializes all frame writes + flushes
	w   *wire.Writer

	rt     monitor.Runtime
	srt    *shard.Runtime // non-nil when the backend is sharded
	spec   *monitor.Spec
	heap   *heap.Heap
	flight *trace.Ring // non-nil with Options.FlightWindow > 0

	// objects maps a remote ID to its session heap object; a nil entry is
	// the tombstone of an ID freed before any event mentioned it. Only the
	// session goroutine touches the table: verdicts read the remote ID back
	// off the object itself.
	objects map[uint64]*heap.Object

	window  int
	ungrant int // events accepted since the last credit grant
	// Events and frees handled since the last publish (see publish).
	nevents, nfrees uint64

	// Node mode (cluster tier): a router marks the session with a
	// NodeHello before the ordinary Hello, which authorizes the handoff
	// frames. vskip is the number of verdict forwards still to suppress
	// inside a handoff bracket — the replayed journal regenerates verdicts
	// the upstream client already received, and the engine must count them
	// (its settled counters are checked against the donor's) without the
	// router delivering them twice.
	node       bool
	nodeRouter uint64
	nodeSlot   uint64
	vskip      atomic.Int64

	// Telemetry. tenant/met/opened are written during the handshake and
	// published by ready.Store(true); the /statusz scraper reads them only
	// after a positive ready.Load(), and reads the counters below with
	// atomics, so session state never races a scrape.
	tenant  string
	met     *metrics.ServerSeries
	rec     *trace.Writer // non-nil with Options.RecordDir
	opened  time.Time
	ready   atomic.Bool
	events  atomic.Uint64
	stalls  atomic.Uint64
	stallNs atomic.Uint64

	vals []heap.Ref // dispatch scratch
	vids []uint64   // verdict-ID scratch (onVerdict is serialized)
}

// run executes the session to completion.
func (s *session) run() {
	defer s.conn.Close()
	r := wire.NewReader(s.conn)
	s.w = wire.NewWriter(s.conn)

	var msg wire.Msg
	if err := r.Next(&msg); err != nil {
		s.srv.logf("session %d: reading hello: %v", s.id, err)
		return
	}
	if msg.Type == wire.TNodeHello {
		// A cluster router owns this session: remember the marker (it
		// authorizes the handoff frames) and read the ordinary Hello next.
		s.node = true
		s.nodeRouter, s.nodeSlot = msg.NodeHello.Router, msg.NodeHello.Slot
		if err := r.Next(&msg); err != nil {
			s.srv.logf("session %d: reading hello: %v", s.id, err)
			return
		}
	}
	if msg.Type != wire.THello {
		s.fail("expected Hello, got message type %d", msg.Type)
		return
	}
	if err := s.handshake(msg.Hello); err != nil {
		s.fail("%v", err)
		return
	}
	defer s.teardown()
	defer s.rt.Close()
	s.srv.logf("session %d: open spec=%s shards=%d window=%d", s.id, s.spec.Name, s.shardCount(), s.window)

	// Ingest loop, batch-drained: frames already sitting in the read
	// buffer are decoded and dispatched back to back — the decoder reuses
	// one Msg and ID buffer, so a pipelined burst of events shares the
	// engine's allocation-free path end to end — and the counters and the
	// accumulated credit are settled only when the stream would block. The
	// half-window threshold forces an early grant, so the producer's
	// pipeline never empties while the backend keeps up.
	defer s.publish()
	for {
		if err := r.Next(&msg); err != nil {
			if err != io.EOF {
				s.srv.logf("session %d: read: %v", s.id, err)
			}
			return
		}
		for {
			stop, err := s.handle(&msg)
			if err != nil {
				s.fail("%v", err)
				return
			}
			if stop {
				return
			}
			if s.ungrant >= s.window/2 || s.window < 2 {
				if err := s.grantCredit(); err != nil {
					return
				}
			}
			if !r.FrameBuffered() {
				break
			}
			if err := r.Next(&msg); err != nil {
				if err != io.EOF {
					s.srv.logf("session %d: read: %v", s.id, err)
				}
				return
			}
		}
		s.publish()
		if err := s.grantCredit(); err != nil {
			return
		}
	}
}

// publish moves the events and frees handled since the last call into the
// shared counters: the session's own (what /statusz lists), the tenant's
// series and the server aggregate — cache lines every session of a tenant
// would otherwise write once per frame. It runs when the read buffer
// drains and before any frame that answers the client.
func (s *session) publish() {
	if s.nevents > 0 {
		s.events.Add(s.nevents)
		s.met.Events.Add(s.nevents)
		s.srv.events.Add(s.nevents)
		s.nevents = 0
	}
	if s.nfrees > 0 {
		s.met.Frees.Add(s.nfrees)
		s.nfrees = 0
	}
}

// handle processes one decoded frame. stop reports an orderly end of the
// session (Bye); a non-nil error is a protocol violation.
func (s *session) handle(msg *wire.Msg) (stop bool, err error) {
	switch msg.Type {
	case wire.TEvent:
		return false, s.event(msg.Event)
	case wire.TFree:
		s.free(msg.Free.IDs)
		return false, nil
	}
	// Everything else answers the client, which may read the counters the
	// moment the answer arrives.
	s.publish()
	switch msg.Type {
	case wire.TBarrier:
		s.rt.Barrier()
		s.ack(wire.TBarrierAck, msg.Sync.Token)
	case wire.TFlush:
		s.rt.Flush()
		s.ack(wire.TFlushAck, msg.Sync.Token)
	case wire.TStatsReq:
		st := s.rt.Stats()
		token := msg.Sync.Token
		s.writeLocked(func() error { return s.w.WriteStats(toWireStats(token, st)) })
	case wire.TBye:
		s.rt.Flush()
		st := s.rt.Stats()
		s.writeLocked(func() error { return s.w.WriteByeAck(wire.ByeAck{Stats: toWireStats(0, st)}) })
		s.srv.logf("session %d: closed after %d events", s.id, s.events.Load())
		return true, nil
	case wire.THandoffBegin:
		if !s.node {
			return false, fmt.Errorf("HandoffBegin on a session without a NodeHello")
		}
		s.vskip.Store(int64(msg.HandoffBegin.Skip))
		s.srv.logf("session %d: handoff begin (router %d slot %d, skipping %d verdicts)",
			s.id, s.nodeRouter, s.nodeSlot, msg.HandoffBegin.Skip)
	case wire.THandoffEnd:
		if !s.node {
			return false, fmt.Errorf("HandoffEnd on a session without a NodeHello")
		}
		// Settle the replayed state, stop suppressing (a correct replay
		// consumed the skip budget exactly; a leftover budget would
		// silently swallow live verdicts), and ack with the counters the
		// router verifies against the donor's ByeAck.
		s.rt.Flush()
		s.vskip.Store(0)
		st := s.rt.Stats()
		token := msg.Sync.Token
		s.writeLocked(func() error { return s.w.WriteHandoffAck(toWireStats(token, st)) })
		s.srv.logf("session %d: handoff settled after %d events", s.id, s.events.Load())
	default:
		return false, fmt.Errorf("unexpected message type %d", msg.Type)
	}
	return false, nil
}

// teardown seals and closes the trace recorder, if any. It runs after
// rt.Close and before the session leaves the server's map (where the
// active-session gauge drops), so the engine's final delta publication
// and the recording land before the gauge moves.
func (s *session) teardown() {
	if s.rec != nil {
		if err := s.rec.Close(); err != nil {
			s.srv.logf("session %d: closing recording: %v", s.id, err)
		}
		s.rec = nil
	}
}

func (s *session) shardCount() int {
	if s.srt != nil {
		return s.srt.Shards()
	}
	return 1
}

// handshake validates the Hello, compiles the spec and builds the backend.
func (s *session) handshake(h wire.Hello) error {
	if h.Version != wire.Version {
		return fmt.Errorf("protocol version %d not supported (server speaks %d)", h.Version, wire.Version)
	}
	compiled, err := resolveSpec(h.SpecKind, h.Spec)
	if err != nil {
		return err
	}
	gc := monitor.GCPolicy(h.GC)
	if gc < monitor.GCNone || gc > monitor.GCCoenable {
		return fmt.Errorf("unknown GC policy %d", h.GC)
	}
	creation := monitor.CreationStrategy(h.Creation)
	if creation != monitor.CreateEnable && creation != monitor.CreateFull {
		return fmt.Errorf("unknown creation strategy %d", h.Creation)
	}
	avoid := monitor.AvoidMode(h.Avoid)
	if avoid < monitor.AvoidOff || avoid > monitor.AvoidEnforce {
		return fmt.Errorf("unknown avoidance mode %d", h.Avoid)
	}
	shards := int(h.Shards)
	if shards == 0 {
		shards = s.srv.opts.DefaultShards
	}
	if shards < 1 || shards > s.srv.opts.MaxShards {
		return fmt.Errorf("shards %d out of range 1..%d", shards, s.srv.opts.MaxShards)
	}
	window := s.srv.opts.Window
	if h.Window > 0 && int(h.Window) < window {
		window = int(h.Window)
	}

	opts := monitor.Options{
		GC: gc, Creation: creation, Avoid: avoid, OnVerdict: s.onVerdict,
		Metrics: metrics.NewEngineSeries(s.srv.reg, compiled.Name, gc.String()),
	}
	if shards > 1 {
		srt, err := shard.New(compiled, shard.Options{
			Options: opts, Shards: shards,
			MetricsRegistry: s.srv.reg, MetricsLabel: compiled.Name,
		})
		if err != nil {
			return err
		}
		s.rt, s.srt = srt, srt
	} else {
		eng, err := monitor.New(compiled, opts)
		if err != nil {
			return err
		}
		s.rt = eng
	}
	s.spec = compiled
	if s.srv.opts.FlightWindow > 0 {
		s.flight = trace.NewRing(s.srv.opts.FlightWindow)
	}
	s.heap = heap.New()
	s.objects = map[uint64]*heap.Object{}
	s.window = window

	if dir := s.srv.opts.RecordDir; dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("session-%d.rvt", s.id))
		wtr, err := func() (*trace.Writer, error) {
			if err := trace.EnsureDir(path); err != nil {
				return nil, err
			}
			return trace.CreateForSpec(path, compiled, trace.WriterOptions{
				Metrics: metrics.NewTraceSeries(s.srv.reg, compiled.Name),
			})
		}()
		if err != nil {
			s.srv.logf("session %d: recording disabled: %v", s.id, err)
		} else {
			s.rec = wtr
		}
	}

	s.tenant = compiled.Name
	s.met = metrics.NewServerSeries(s.srv.reg, s.tenant)
	s.met.Sessions.Inc()
	s.opened = time.Now()
	s.srv.mu.Lock()
	s.srv.sessActive.Add(1)
	s.ready.Store(true)
	s.srv.mu.Unlock()

	ack := wire.HelloAck{
		Session:  s.id,
		Window:   uint64(window),
		SpecName: compiled.Name,
		Params:   compiled.Params,
	}
	for _, ev := range compiled.Events {
		ack.Events = append(ack.Events, wire.EventDef{Name: ev.Name, Params: uint64(ev.Params)})
	}
	return s.writeLocked(func() error { return s.w.WriteHelloAck(ack) })
}

// resolveSpec turns the Hello's spec reference into a compiled Spec: a
// library property name, or .rv source compiled on the spot (which must
// define exactly one property).
func resolveSpec(kind byte, src string) (*monitor.Spec, error) {
	switch kind {
	case wire.SpecProp:
		return props.Build(src)
	case wire.SpecSource:
		return spec.CompileOne(src)
	}
	return nil, fmt.Errorf("unknown spec kind %d", kind)
}

// event dispatches one remote event into the backend and replenishes
// credit as the backend accepts it.
func (s *session) event(ev wire.Event) error {
	if ev.Sym < 0 || ev.Sym >= len(s.spec.Events) {
		return fmt.Errorf("event symbol %d out of range (spec %s has %d events)", ev.Sym, s.spec.Name, len(s.spec.Events))
	}
	want := s.spec.Events[ev.Sym].Params.Count()
	if len(ev.IDs) != want {
		return fmt.Errorf("event %q takes %d objects, got %d", s.spec.Events[ev.Sym].Name, want, len(ev.IDs))
	}
	s.vals = s.vals[:0]
	for _, id := range ev.IDs {
		o, ok := s.objects[id]
		if !ok {
			o = s.heap.AllocRemote(id)
			s.objects[id] = o
		}
		if o == nil || !o.Alive() {
			return fmt.Errorf("event %q uses remote object %d after its free", s.spec.Events[ev.Sym].Name, id)
		}
		s.vals = append(s.vals, o)
	}
	theta := param.Of(s.spec.Events[ev.Sym].Params, s.vals...)
	// Record before dispatch: on the sequential backend the verdict
	// handler runs inside Dispatch, and the window it dumps must include
	// the event that triggered it.
	if s.flight != nil {
		s.flight.RecordDispatchIDs(ev.Sym, s.spec.Events[ev.Sym].Params, ev.IDs)
	}
	if s.rec != nil {
		if err := s.rec.EventIDs(ev.Sym, ev.IDs); err != nil {
			s.srv.logf("session %d: recording stopped: %v", s.id, err)
			s.rec.Close()
			s.rec = nil
		}
	}
	if s.srt != nil {
		// Non-blocking first: a refusal means the target mailbox is full,
		// and the blocking fallback is precisely the backpressure — the
		// session reads no further frames (and grants no further credit)
		// until the shard drains.
		if !s.srt.TryDispatch(ev.Sym, theta) {
			s.stallDispatch(ev.Sym, theta)
		}
	} else {
		s.rt.Dispatch(ev.Sym, theta)
	}
	// Counted and credited when the ingest loop settles the block (run).
	s.nevents++
	s.ungrant++
	return nil
}

// stallDispatch is the blocking fallback behind a TryDispatch refusal:
// the session reader stalls here, withholding credit, until the shard
// mailbox drains. The stall is counted and timed, and a stall still
// blocked after one second logs a structured warning with the withheld
// credit and the backlog — the "why is my session stuck" diagnostic. The
// timer allocation is fine: this path is already blocking on a full
// mailbox.
func (s *session) stallDispatch(sym int, theta param.Instance) {
	s.met.CreditStalls.Inc()
	credits := s.ungrant
	start := time.Now()
	warn := time.AfterFunc(time.Second, func() {
		depths := s.srt.QueueDepths()
		deepest := 0
		for _, d := range depths {
			if d > deepest {
				deepest = d
			}
		}
		s.srv.logf("session %d: credit-starved >1s tenant=%s credits_withheld=%d mailbox_depth=%d shards=%d",
			s.id, s.tenant, credits, deepest, len(depths))
	})
	s.srt.Dispatch(sym, theta)
	warn.Stop()
	d := time.Since(start)
	s.met.StallSeconds.Observe(d.Seconds())
	s.stallNs.Add(uint64(d))
	s.stalls.Add(1)
}

// grantCredit flushes the accumulated event credit to the client.
func (s *session) grantCredit() error {
	n := uint64(s.ungrant)
	if n == 0 {
		return nil
	}
	s.ungrant = 0
	s.met.CreditGrants.Inc()
	return s.writeLocked(func() error { return s.w.WriteCredit(n) })
}

// free applies protocol-level object deaths: barrier the backend so every
// event sent before the Free is processed against the old liveness, then
// kill the objects — from this moment the coenable-set GC may flag and
// collect every monitor whose ALIVENESS formula depended on them, exactly
// as if a weak reference had been cleared. Table entries are retained,
// now holding dead objects: an event naming the ID again is
// use-after-free and must be refused (never silently re-allocated), and a
// late verdict (the alldead/none GC policies keep such monitors) may
// still mention the object.
func (s *session) free(ids []uint64) {
	if s.flight != nil {
		s.flight.RecordFreeIDs(ids)
	}
	s.nfrees++
	if s.rec != nil {
		if err := s.rec.FreeIDs(ids); err != nil {
			s.srv.logf("session %d: recording stopped: %v", s.id, err)
			s.rec.Close()
			s.rec = nil
		}
	}
	// Barrier only when a death is observable: deaths of objects that
	// never appeared in an event (dacapo workloads free far more objects
	// than any one property mentions) change nothing for the monitors,
	// and a cross-shard sync per irrelevant death would stall ingestion.
	observable := false
	for _, id := range ids {
		if o := s.objects[id]; o != nil && o.Alive() {
			observable = true
			break
		}
	}
	if observable {
		s.rt.Barrier()
	}
	for _, id := range ids {
		if o := s.objects[id]; o != nil {
			s.heap.Free(o)
		} else {
			// Never appeared in an event: record a tombstone anyway, so
			// the death is final for this ID too — a later event naming
			// it must be refused, not silently allocated live. No monitor
			// can mention it, so it needs no heap object.
			s.objects[id] = nil
		}
	}
}

// onVerdict forwards a goal verdict to the client. It is called from the
// session goroutine (sequential backend) or from shard workers (serialized
// by the shard runtime's verdict mutex) — never concurrently with itself,
// which is what lets it reuse the session's verdict-ID scratch.
func (s *session) onVerdict(v monitor.Verdict) {
	// Inside a handoff bracket the first vskip verdicts are replays the
	// upstream client already has; the engine counted them, the wire must
	// not carry them again. onVerdict invocations are serialized, so the
	// check-then-decrement pair never races itself.
	if s.vskip.Load() > 0 {
		s.vskip.Add(-1)
		return
	}
	s.srv.verdicts.Add(1)
	s.met.Verdicts.Inc()
	wv := wire.Verdict{Sym: v.Sym, Cat: string(v.Cat), Mask: uint64(v.Inst.Mask())}
	s.vids = s.vids[:0]
	for pm := v.Inst.Mask(); pm != 0; pm = pm.Rest() {
		// Every ref in a session's engine is one of its AllocRemote objects.
		s.vids = append(s.vids, v.Inst.Value(pm.First()).(*heap.Object).RemoteID())
	}
	wv.IDs = s.vids
	s.writeLocked(func() error { return s.w.WriteVerdict(wv) })
	if s.flight != nil && v.Cat != logic.Match {
		s.dumpWindow(wv)
	}
}

// dumpWindow logs the flight-recorder window behind a failure verdict:
// the recent events and protocol frees, oldest first, with the client's
// object IDs. onVerdict invocations are serialized, so the dump is one
// coherent block per verdict.
func (s *session) dumpWindow(v wire.Verdict) {
	var b []byte
	for _, e := range s.flight.Snapshot() {
		if e.Kind == trace.RingFree {
			b = fmt.Appendf(b, " #%d free%v", e.Seq, e.IDs[:e.N])
		} else if int(e.Sym) < len(s.spec.Events) {
			b = fmt.Appendf(b, " #%d %s%v", e.Seq, s.spec.Events[e.Sym].Name, e.IDs[:e.N])
		}
	}
	s.srv.logf("session %d: verdict %s on %v, flight window:%s", s.id, v.Cat, v.IDs, string(b))
}

// ack writes a token-echo frame.
func (s *session) ack(t byte, token uint64) {
	s.writeLocked(func() error { return s.w.WriteSync(t, token) })
}

// fail sends a fatal Error frame and logs; the caller closes the session.
func (s *session) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.srv.logf("session %d: %s", s.id, msg)
	s.writeLocked(func() error { return s.w.WriteError(msg) })
}

// writeLocked runs one or more frame writes under the write mutex and
// flushes, so every server→client frame becomes visible promptly and
// writes from shard workers never interleave mid-frame.
func (s *session) writeLocked(f func() error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := f(); err != nil {
		return err
	}
	return s.w.Flush()
}

func toWireStats(token uint64, st monitor.Stats) wire.Stats {
	return wire.Stats{
		Token:        token,
		Events:       st.Events,
		Created:      st.Created,
		Flagged:      st.Flagged,
		Collected:    st.Collected,
		GoalVerdicts: st.GoalVerdicts,
		Steps:        st.Steps,
		Avoided:      st.Avoided,
		Live:         st.Live,
		PeakLive:     st.PeakLive,
	}
}
