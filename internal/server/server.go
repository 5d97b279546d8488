// Package server is the session front of the wire protocol — the only one
// — and the monitoring server built on it: it accepts wire-protocol
// sessions over TCP and runs one monitoring backend per session — the
// paper's engine, deployed as a service.
//
// The front owns everything a session is on the wire: accept, drain and
// force-close; the Hello's validation; the block-drained ingest loop with
// its counters and credit; acks, verdict frames and the fatal Error frame;
// the session listing and the debug mux. It drives an ID-level Backend and
// never looks behind it, which is what lets one front serve both tiers: a
// Server built by New monitors each session itself (local.go: a spec
// registry entry compiled from the client's Hello, a sequential engine or
// sharded runtime chosen per session, a session-scoped simulated heap and
// the remote-ID→object table), and the cluster router (internal/cluster)
// is the same front over a backend that fans the session out across nodes.
// A client cannot tell the two apart.
//
// The ingest loop works a read block at a time: every frame already
// buffered is decoded and handed to the backend back to back, and the
// per-frame bookkeeping — event and free counters, the credit grant — is
// settled once per block (or before any frame that answers the client, so
// an ack never overtakes the counts it acknowledges).
//
// Flow control: sessions grant event credits (wire.Credit) as the backend
// actually accepts events — a credit is returned only after Backend.Event
// has. A backend that blocks there (a full shard mailbox locally, a slot
// whose node withholds credit behind a router) stalls the session reader,
// withholds further credit, and so propagates its backpressure to the
// remote producer at the protocol level.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/spec"
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

// Backend is the ID-level runtime behind one session. The front validates
// every frame against the session's spec before calling in, calls from
// the session's one goroutine, and treats any error as fatal to the
// session (the client gets it in an Error frame).
type Backend interface {
	// Event places one event. The front returns the event's credit to the
	// client only after Event has returned, so blocking here is the
	// backend's backpressure.
	Event(sym int, ids []uint64) error
	// Free applies object deaths at this point of the stream.
	Free(ids []uint64) error
	// Barrier returns once every placed event is processed and its
	// verdicts have been forwarded.
	Barrier() error
	// Flush is Barrier plus a full expunge pass: the counters settle.
	Flush() error
	// Stats snapshots the counters.
	Stats() (monitor.Stats, error)
	// Close settles the backend, releases it and returns the final
	// counters. The front calls it exactly once per opened backend, when
	// the stream ends — by a Bye, a disconnect or an error alike.
	Close() (monitor.Stats, error)
}

// Server accepts and runs monitoring sessions.
type Server struct {
	opts Options
	open func(*Session) (Backend, error)

	mu       sync.Mutex
	listener net.Listener
	sessions map[*Session]struct{}
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

// New builds a monitoring server: the front over local backends.
func New(opts Options) *Server {
	if opts.MaxShards <= 0 {
		opts.MaxShards = 16
	}
	if opts.DefaultShards <= 0 {
		opts.DefaultShards = 1
	}
	return NewFront(opts, openLocal)
}

// NewFront builds the session front over the backends open constructs —
// one per session, from its validated Hello (see Session). The cluster
// router is the other caller; only Window and Logf concern the front, the
// remaining options shape the local backend.
func NewFront(opts Options, open func(*Session) (Backend, error)) *Server {
	if opts.Window <= 0 {
		opts.Window = 4096
	}
	s := &Server{opts: opts, open: open, sessions: map[*Session]struct{}{}, reg: metrics.NewRegistry(), started: time.Now()}
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
		sess := &Session{srv: s, ID: s.nextID, conn: conn}
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

// Session is one client connection: the protocol half of a session, in
// front of its Backend. The exported fields are what a backend constructor
// builds from.
type Session struct {
	// ID is the server-assigned session number.
	ID uint64
	// Spec is the property the Hello named, compiled.
	Spec *monitor.Spec
	// Hello is the frame as received. Its version, spec reference and mode
	// bytes are validated — a backend may hand them on as they are — while
	// the backend shape it asks for (Shards) is the backend's to judge.
	Hello wire.Hello
	// Node is the router's marker when one preceded the Hello (a cluster
	// slot session), else nil.
	Node *wire.NodeHello

	srv    *Server
	conn   net.Conn
	b      Backend
	series *metrics.ServerSeries // the tenant's rv_server_* series

	wmu sync.Mutex // serializes all frame writes + flushes
	w   *wire.Writer

	window  int
	ungrant int // events accepted since the last credit grant
	// Events and frees handled since the last publish (see publish).
	nevents, nfrees uint64

	// Telemetry. The exported fields, b, window and opened are written
	// during the handshake and published by ready.Store(true); the
	// /statusz scraper reads them only after a positive ready.Load(), and
	// reads events with an atomic, so session state never races a scrape.
	opened time.Time
	ready  atomic.Bool
	events atomic.Uint64
}

// run executes the session to completion.
func (s *Session) run() {
	defer s.conn.Close()
	r := wire.NewReader(s.conn)
	s.w = wire.NewWriter(s.conn)

	var msg wire.Msg
	if err := r.Next(&msg); err != nil {
		s.srv.logf("session %d: reading hello: %v", s.ID, err)
		return
	}
	if msg.Type == wire.TNodeHello {
		// A cluster router owns this session: remember the marker (whether
		// to honour it is the backend's call) and read the ordinary Hello.
		node := msg.NodeHello
		s.Node = &node
		if err := r.Next(&msg); err != nil {
			s.srv.logf("session %d: reading hello: %v", s.ID, err)
			return
		}
	}
	if msg.Type != wire.THello {
		s.fail(fmt.Errorf("expected Hello, got message type %d", msg.Type))
		return
	}
	if err := s.handshake(msg.Hello); err != nil {
		s.fail(err)
		if s.b != nil { // opened, but the HelloAck could not be written
			s.b.Close()
		}
		return
	}
	s.srv.logf("session %d: open spec=%s window=%d", s.ID, s.Spec.Name, s.window)

	// However the stream ends, the backend is closed once, here: after the
	// Error frame of a failed session (so the client is not kept waiting on
	// a settle it will not hear about), before the ByeAck that carries the
	// settled counters, and before the session leaves the server's map —
	// where the active-session gauge drops — so the backend's final
	// publications land before the gauge moves.
	bye, err := s.ingest(r)
	s.publish()
	if err != nil {
		s.fail(err)
	}
	st, cerr := s.b.Close()
	if err != nil || !bye {
		return
	}
	if cerr != nil {
		s.fail(cerr)
		return
	}
	s.writeLocked(func() error { return s.w.WriteByeAck(wire.ByeAck{Stats: wire.StatsOf(0, st)}) })
	s.srv.logf("session %d: closed after %d events", s.ID, s.events.Load())
}

// ingest is the ingest loop, batch-drained: frames already sitting in the
// read buffer are decoded and handled back to back — the decoder reuses
// one Msg and ID buffer, so a pipelined burst of events shares the
// engine's allocation-free path end to end — and the counters and the
// accumulated credit are settled only when the stream would block. The
// half-window threshold forces an early grant, so the producer's pipeline
// never empties while the backend keeps up. It returns when the stream
// ends: bye reports an orderly Bye, a non-nil error a protocol violation
// or backend failure the client is owed an Error frame for.
func (s *Session) ingest(r *wire.Reader) (bye bool, err error) {
	var msg wire.Msg
	for {
		for more := true; more; more = r.FrameBuffered() {
			if err := r.Next(&msg); err != nil {
				if err != io.EOF {
					s.srv.logf("session %d: read: %v", s.ID, err)
				}
				return false, nil
			}
			if bye, err := s.handle(&msg); bye || err != nil {
				return bye, err
			}
			if s.ungrant >= s.window/2 || s.window < 2 {
				if s.grantCredit() != nil {
					return false, nil
				}
			}
		}
		s.publish()
		if s.grantCredit() != nil {
			return false, nil
		}
	}
}

// publish moves the events and frees handled since the last call into the
// shared counters: the session's own (what /statusz lists), the tenant's
// series and the server aggregate — cache lines every session of a tenant
// would otherwise write once per frame. It runs when the read buffer
// drains and before any frame that answers the client.
func (s *Session) publish() {
	if s.nevents > 0 {
		s.events.Add(s.nevents)
		s.series.Events.Add(s.nevents)
		s.srv.events.Add(s.nevents)
		s.nevents = 0
	}
	if s.nfrees > 0 {
		s.series.Frees.Add(s.nfrees)
		s.nfrees = 0
	}
}

// handle processes one decoded frame. bye reports the orderly end of the
// stream; a non-nil error is a protocol violation or a backend failure.
func (s *Session) handle(msg *wire.Msg) (bye bool, err error) {
	switch msg.Type {
	case wire.TEvent:
		ev := msg.Event
		if ev.Sym < 0 || ev.Sym >= len(s.Spec.Events) {
			return false, fmt.Errorf("event symbol %d out of range (spec %s has %d events)", ev.Sym, s.Spec.Name, len(s.Spec.Events))
		}
		if want := s.Spec.Events[ev.Sym].Params.Count(); len(ev.IDs) != want {
			return false, fmt.Errorf("event %q takes %d objects, got %d", s.Spec.Events[ev.Sym].Name, want, len(ev.IDs))
		}
		if err := s.b.Event(ev.Sym, ev.IDs); err != nil {
			return false, err
		}
		// Counted and credited when the ingest loop settles the block.
		s.nevents++
		s.ungrant++
		return false, nil
	case wire.TFree:
		s.nfrees++
		return false, s.b.Free(msg.Free.IDs)
	}
	// Everything else answers the client, which may read the counters the
	// moment the answer arrives.
	s.publish()
	token := msg.Sync.Token
	switch msg.Type {
	case wire.TBarrier:
		if err := s.b.Barrier(); err != nil {
			return false, err
		}
		s.writeLocked(func() error { return s.w.WriteSync(wire.TBarrierAck, token) })
	case wire.TFlush:
		if err := s.b.Flush(); err != nil {
			return false, err
		}
		s.writeLocked(func() error { return s.w.WriteSync(wire.TFlushAck, token) })
	case wire.TStatsReq:
		st, err := s.b.Stats()
		if err != nil {
			return false, err
		}
		s.writeLocked(func() error { return s.w.WriteStats(wire.StatsOf(token, st)) })
	case wire.TBye:
		return true, nil
	case wire.THandoffBegin, wire.THandoffEnd:
		// Slot sessions terminate on nodes: any backend but the local one
		// (a router's) refuses the bracket as it would an unknown type.
		lb, ok := s.b.(*local)
		if !ok {
			return false, fmt.Errorf("unexpected message type %d", msg.Type)
		}
		if msg.Type == wire.THandoffBegin {
			return false, lb.handoffBegin(msg.HandoffBegin.Skip)
		}
		st, err := lb.handoffEnd()
		if err != nil {
			return false, err
		}
		s.writeLocked(func() error { return s.w.WriteHandoffAck(wire.StatsOf(token, st)) })
	default:
		return false, fmt.Errorf("unexpected message type %d", msg.Type)
	}
	return false, nil
}

// compileHello validates a Hello and compiles the spec it names: the
// protocol version, the spec reference — a library property name, or .rv
// source compiled on the spot (which must define exactly one property) —
// and the modes, which monitor.Options.Check judges for one lane. Every
// front refuses a bad Hello here, with the same error; a backend converts
// the bytes (Hello.Options), or hands them on, as they are.
func compileHello(h wire.Hello) (compiled *monitor.Spec, err error) {
	if h.Version != wire.Version {
		return nil, fmt.Errorf("protocol version %d not supported (server speaks %d)", h.Version, wire.Version)
	}
	switch h.SpecKind {
	case wire.SpecProp:
		compiled, err = props.Build(h.Spec)
	case wire.SpecSource:
		compiled, err = spec.CompileOne(h.Spec)
	default:
		err = fmt.Errorf("unknown spec kind %d", h.SpecKind)
	}
	if err != nil {
		return nil, err
	}
	if err := h.Options().Check(compiled, 1); err != nil {
		return nil, err
	}
	return compiled, nil
}

// handshake validates the Hello, opens the backend and acknowledges.
func (s *Session) handshake(h wire.Hello) error {
	compiled, err := compileHello(h)
	if err != nil {
		return err
	}
	s.Spec, s.Hello = compiled, h
	s.window = s.srv.opts.Window
	if h.Window > 0 && int(h.Window) < s.window {
		s.window = int(h.Window)
	}
	// Interned before the backend exists: its goroutines reach Verdict.
	s.series = metrics.NewServerSeries(s.srv.reg, s.Spec.Name)
	b, err := s.srv.open(s)
	if err != nil {
		return err
	}
	s.b = b
	s.series.Sessions.Inc()
	s.opened = time.Now()
	s.srv.mu.Lock()
	s.srv.sessActive.Add(1)
	s.ready.Store(true)
	s.srv.mu.Unlock()

	ack := wire.HelloAck{
		Session:  s.ID,
		Window:   uint64(s.window),
		SpecName: s.Spec.Name,
		Params:   s.Spec.Params,
	}
	for _, ev := range s.Spec.Events {
		ack.Events = append(ack.Events, wire.EventDef{Name: ev.Name, Params: uint64(ev.Params)})
	}
	return s.writeLocked(func() error { return s.w.WriteHelloAck(ack) })
}

// grantCredit flushes the accumulated event credit to the client.
func (s *Session) grantCredit() error {
	n := uint64(s.ungrant)
	if n == 0 {
		return nil
	}
	s.ungrant = 0
	s.series.CreditGrants.Inc()
	return s.writeLocked(func() error { return s.w.WriteCredit(n) })
}

// Verdict forwards one goal verdict to the client. Backends call it from
// whatever goroutine reaches the verdict; frame writes are serialized
// here, the order of verdicts is the backend's to keep.
func (s *Session) Verdict(v wire.Verdict) {
	s.srv.verdicts.Add(1)
	s.series.Verdicts.Inc()
	s.writeLocked(func() error { return s.w.WriteVerdict(v) })
}

// fail sends a fatal Error frame and logs; the caller ends the session.
func (s *Session) fail(err error) {
	s.srv.logf("session %d: %v", s.ID, err)
	s.writeLocked(func() error { return s.w.WriteError(err.Error()) })
}

// writeLocked runs one or more frame writes under the write mutex and
// flushes, so every server→client frame becomes visible promptly and
// writes from backend goroutines never interleave mid-frame.
func (s *Session) writeLocked(f func() error) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := f(); err != nil {
		return err
	}
	return s.w.Flush()
}
