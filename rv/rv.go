// Package rv is the live-object instrumentation frontend: monitor your
// actual program, not a recorded trace. A monitored program attaches
// parametric events directly to its own live Go objects —
//
//	m, _ := rvgo.New(spec)
//	session := rv.New(m, rv.Options{})
//	rv.Attach(session, "create", coll, iter)
//	rv.Attach(session, "next", iter)
//
// — and when the Go garbage collector later reclaims one of those objects,
// that collection is the death signal that drives the paper's coenable-set
// monitor GC, exactly as the JVM's weak references drive JavaMOP/RV.
//
// This is the third ingestion mode of this reproduction, next to recorded
// traces (cmd/rvmon, the DaCapo substrate) and network sessions
// (rvgo.WithRemote): see DESIGN.md for the map. It works against any
// rvgo.Monitor — the sequential engine, the sharded concurrent runtime,
// or a remote session.
//
// # How death travels
//
// Objects are given stable monitoring identities by a weak-keyed registry
// (rvgo.Registry): the session never keeps a monitored object alive. When
// the Go GC collects one, a runtime.AddCleanup hook enqueues its identity
// on the session's death queue. The queue is delivered at deterministic
// points — automatically at the next Attach, or explicitly via Poll or
// Collect — through the Monitor's Free, and the object is marked dead right
// after it: the death is positioned in the event stream (after everything
// already dispatched, before everything later) and only then becomes
// visible, so per-slice verdicts
// and settled counters are identical to an explicit-free replay of the
// same trace. A raw weak-reference flip could race queued events; a
// queued, stream-positioned death cannot.
//
// # Contracts
//
// Monitored objects must be pointer-shaped (pointers, maps, channels) and
// heap-allocated — registering a pointer to a global crashes the runtime,
// the same contract as runtime.AddCleanup. Beware the tiny allocator:
// a pointer-free object smaller than 16 bytes shares its allocation block
// with unrelated neighbours and is only collected when the whole block is,
// so its death signal can be delayed indefinitely. Real parameter objects
// (iterators, collections) contain pointers and are unaffected; if you
// must monitor a tiny pointer-free struct, give it a pointer field. A
// session is as safe for concurrent Attach as its Monitor's backend (the
// sharded and remote runtimes are; the sequential engine is
// single-threaded). Poll and Collect may run concurrently with Attach on
// a concurrent backend: a cleanup can only fire after the program dropped
// the object, so its death signal always trails the object's own events.
package rv

import (
	"fmt"
	"runtime"
	"time"

	"rvgo"
)

// Options configures a session.
type Options struct {
	// ManualPoll disables automatic death delivery at Attach: pending
	// death signals are delivered only by explicit Poll or Collect calls.
	// Oracle tests use this to pin deaths to exact trace positions.
	ManualPoll bool
	// Label names a monitored object for diagnostics and verdict
	// rendering. Nil labels objects "obj#<id>" by identity.
	Label func(v any) string
}

// Session binds a monitor to the live objects of this process.
type Session struct {
	m    *rvgo.Monitor
	tab  *rvgo.Registry
	opts Options
}

// New wraps a monitor in a live-object session. The session does not own
// the monitor: Close shuts it down, but the caller may also drive it
// directly (Monitor) for stats or flushes.
func New(m *rvgo.Monitor, opts Options) *Session {
	return &Session{m: m, tab: rvgo.NewRegistry(), opts: opts}
}

// Attach emits the named parametric event over live Go objects, in the
// spec's parameter order for that event. Objects are registered on first
// sight; the same object always binds the same monitoring identity. The
// error contract is EmitNamed's (unknown event, arity mismatch) plus a
// registration error for values without reference identity.
func Attach(s *Session, event string, objs ...any) error { return s.Attach(event, objs...) }

// Attach is the method form of the package-level Attach.
func (s *Session) Attach(event string, objs ...any) error {
	if !s.opts.ManualPoll && s.tab.Pending() > 0 {
		s.Poll()
	}
	refs := make([]rvgo.Ref, len(objs))
	for i, o := range objs {
		label := ""
		if s.opts.Label != nil {
			label = s.opts.Label(o)
		}
		ref, err := s.tab.Register(o, label)
		if err != nil {
			return fmt.Errorf("rv: event %q, value %d: %w", event, i, err)
		}
		refs[i] = ref
	}
	err := s.m.EmitNamed(event, refs...)
	// Pin the objects until the event is in the backend's stream: without
	// this, the GC could collect an object between registration and
	// dispatch, and a concurrent Poll could deliver its death ahead of
	// this very event.
	runtime.KeepAlive(objs)
	return err
}

// Poll delivers every queued death signal to the monitor — Monitor.Free,
// then the kill — and returns the number delivered. Delivery is
// what makes a collection observable: until a death is delivered, the
// monitors still see the object as alive.
func (s *Session) Poll() int {
	objs := s.tab.Drain()
	if len(objs) == 0 {
		return 0
	}
	refs := make([]rvgo.Ref, len(objs))
	for i, o := range objs {
		refs[i] = o
	}
	s.m.Free(refs...)
	h := s.tab.Heap()
	for _, o := range objs {
		h.Free(o)
	}
	return len(objs)
}

// Collect pins a garbage-collection point: it runs Go GC cycles until n
// death signals beyond those already delivered are available — cleanups
// that fired before the call but were never delivered count toward n, so
// an automatic GC sneaking in between dropping an object and calling
// Collect cannot strand the target — then delivers everything pending. It
// returns the number delivered and whether the target was reached; this
// is the deterministic reclamation point the live-object benchmarks and
// oracle tests are built on. (Under automatic polling a concurrent Attach
// may deliver some of the n first; the target still settles, and the
// returned count covers only this call's deliveries.)
func (s *Session) Collect(n int, timeout time.Duration) (delivered int, ok bool) {
	st := s.tab.Stats() // one consistent Cleaned/Delivered snapshot
	ok = s.tab.Settle(st.Delivered+uint64(n), timeout)
	return s.Poll(), ok
}

// Pending returns the number of deaths queued but not yet delivered.
func (s *Session) Pending() int { return s.tab.Pending() }

// Monitor returns the session's monitor, for stats, flushes and barriers.
func (s *Session) Monitor() *rvgo.Monitor { return s.m }

// Registry returns the session's object table, for diagnostics and tests.
func (s *Session) Registry() *rvgo.Registry { return s.tab }

// Stats returns the monitor's counters.
func (s *Session) Stats() rvgo.Stats { return s.m.Stats() }

// Flush settles the monitor's counters (a full expunge/compaction pass).
func (s *Session) Flush() { s.m.Flush() }

// Close delivers any pending deaths and closes the monitor.
func (s *Session) Close() {
	s.Poll()
	s.m.Close()
}
