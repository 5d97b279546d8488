package server_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rvgo/internal/cluster"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/remote"
	"rvgo/internal/server"
	"rvgo/internal/wire"
)

// startServer runs a server on an ephemeral port; the test gets the
// address and a raw-dial helper for speaking the protocol by hand.
func startServer(t *testing.T) string {
	t.Helper()
	return startServerWith(t, server.Options{})
}

// startServerWith is startServer with the server's options.
func startServerWith(t *testing.T, opts server.Options) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// startRouter runs a cluster router over two in-process nodes: the other
// deployment of the session front.
func startRouter(t *testing.T) string {
	t.Helper()
	rtr, err := cluster.NewRouter(cluster.RouterOptions{Nodes: []string{startServer(t), startServer(t)}})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rtr.Serve(l) }()
	t.Cleanup(func() {
		rtr.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// eachFront runs body against the two things a client may find behind an
// address — a client cannot tell them apart, and neither may a hostile
// one, so the protocol-abuse tests hold both to the same refusals: the
// server directly on t (the tests keep the names they had when a Server
// was the only front), the router in a subtest.
func eachFront(t *testing.T, body func(t *testing.T, addr string)) {
	body(t, startServer(t))
	t.Run("router", func(t *testing.T) { body(t, startRouter(t)) })
}

func dialRaw(t *testing.T, addr string) (net.Conn, *wire.Writer, *wire.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, wire.NewWriter(conn), wire.NewReader(conn)
}

// expectError reads frames until a TError arrives (skipping acks and
// credit) and returns its message.
func expectError(t *testing.T, r *wire.Reader) string {
	t.Helper()
	var msg wire.Msg
	for {
		if err := r.Next(&msg); err != nil {
			t.Fatalf("stream ended without an Error frame: %v", err)
		}
		if msg.Type == wire.TError {
			return msg.Error.Msg
		}
	}
}

func hello(t *testing.T, w *wire.Writer, h wire.Hello) {
	t.Helper()
	if err := w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// open sends h and requires the HelloAck.
func open(t *testing.T, w *wire.Writer, r *wire.Reader, h wire.Hello) {
	t.Helper()
	hello(t, w, h)
	var msg wire.Msg
	if err := r.Next(&msg); err != nil || msg.Type != wire.THelloAck {
		t.Fatalf("no HelloAck: %v %d", err, msg.Type)
	}
}

func validHello() wire.Hello {
	return wire.Hello{
		Version:  wire.Version,
		SpecKind: wire.SpecProp,
		Spec:     "UnsafeIter",
		GC:       byte(monitor.GCCoenable),
		Creation: byte(monitor.CreateEnable),
		Shards:   1,
	}
}

// TestGarbageStream: raw garbage instead of a Hello must not wedge the
// front; the connection just dies.
func TestGarbageStream(t *testing.T) {
	eachFront(t, func(t *testing.T, addr string) {
		conn, _, _ := dialRaw(t, addr)
		if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64)
		for {
			if _, err := conn.Read(buf); err != nil {
				return // closed (possibly after an Error frame): the right outcome
			}
		}
	})
}

// TestEventBeforeHello: the first frame must be a Hello.
func TestEventBeforeHello(t *testing.T) {
	eachFront(t, func(t *testing.T, addr string) {
		_, w, r := dialRaw(t, addr)
		if err := w.WriteEvent(0, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg := expectError(t, r); !strings.Contains(msg, "Hello") {
			t.Errorf("error %q does not mention the missing Hello", msg)
		}
	})
}

// TestBadVersion: an unknown protocol version is refused, and so is the
// previous one, whose clients would not understand Release frames.
func TestBadVersion(t *testing.T) {
	eachFront(t, func(t *testing.T, addr string) {
		for _, v := range []uint64{99, wire.Version - 1} {
			_, w, r := dialRaw(t, addr)
			h := validHello()
			h.Version = v
			hello(t, w, h)
			if msg := expectError(t, r); !strings.Contains(msg, "version") {
				t.Errorf("version %d: error %q does not mention the version", v, msg)
			}
		}
	})
}

// TestClientRelease: a Release is the server's to send; one from a client
// is refused with an Error frame.
func TestClientRelease(t *testing.T) {
	eachFront(t, func(t *testing.T, addr string) {
		_, w, r := dialRaw(t, addr)
		open(t, w, r, validHello())
		if err := w.WriteRelease(0, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if msg := expectError(t, r); !strings.Contains(msg, fmt.Sprintf("message type %d", wire.TRelease)) {
			t.Errorf("error %q does not name the Release frame", msg)
		}
	})
}

// TestHelloAckLanes: the HelloAck announces the lanes whose releases the
// session will send — one engine, one per shard, one per router slot — and
// each lane releases each freed ID once, by the next ack. A session of more
// lanes than a client tracks is refused: MaxShards is capped at
// shard.MaxLanes.
func TestHelloAckLanes(t *testing.T) {
	for _, c := range []struct {
		name   string
		addr   string
		shards uint64
		lanes  uint64
		ids    int // release IDs by the FlushAck
	}{
		{"sequential", startServer(t), 1, 1, 2},
		{"sharded", startServer(t), 3, 3, 6},
		{"router", startRouter(t), 1, 16, 32}, // the default slot ring
	} {
		_, w, r := dialRaw(t, c.addr)
		h := validHello()
		h.Shards = c.shards
		hello(t, w, h)
		var msg wire.Msg
		if err := r.Next(&msg); err != nil || msg.Type != wire.THelloAck {
			t.Fatalf("%s: no HelloAck: %v %d", c.name, err, msg.Type)
		}
		if msg.HelloAck.Lanes != c.lanes {
			t.Errorf("%s: HelloAck reports %d lanes, want %d", c.name, msg.HelloAck.Lanes, c.lanes)
		}
		// create(c=1, i=2), both freed, then a Flush.
		w.WriteEvent(0, []uint64{1, 2})
		w.WriteFree([]uint64{1, 2})
		w.WriteSync(wire.TFlush, 1)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ids := 0
		for {
			if err := r.Next(&msg); err != nil {
				t.Fatalf("%s: %v before the FlushAck", c.name, err)
			}
			if msg.Type == wire.TFlushAck {
				break
			}
			if msg.Type == wire.TRelease {
				ids += len(msg.Release.IDs)
			}
		}
		if ids != c.ids {
			t.Errorf("%s: %d IDs released by the FlushAck, want %d", c.name, ids, c.ids)
		}
	}
	_, w, r := dialRaw(t, startServerWith(t, server.Options{MaxShards: 65}))
	h := validHello()
	h.Shards = 65
	hello(t, w, h)
	if msg := expectError(t, r); !strings.Contains(msg, "out of range 1..64") {
		t.Errorf("wide: a Hello asking 65 shards got %q, want a refusal naming the range 1..64", msg)
	}
}

// TestUseAfterFree: an event naming a remote object the client already
// freed is a protocol error — the object's death was final.
func TestUseAfterFree(t *testing.T) {
	addr := startServer(t)
	_, w, r := dialRaw(t, addr)
	hello(t, w, validHello())
	var msg wire.Msg
	if err := r.Next(&msg); err != nil || msg.Type != wire.THelloAck {
		t.Fatalf("no HelloAck: %v %d", err, msg.Type)
	}
	// create(c=1, i=2); free 2; next(i=2) → error.
	if err := w.WriteEvent(0, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFree([]uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(2, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := expectError(t, r); !strings.Contains(msg, "free") {
		t.Errorf("error %q does not mention the free", msg)
	}
}

// TestUseAfterFreeSharded is TestUseAfterFree on a sharded session, whose
// runtime only queues the death behind the events before it: the session
// kills its object at once, the queued events still observe it alive (the
// match is delivered), and the death is as final as on a sequential one.
func TestUseAfterFreeSharded(t *testing.T) {
	addr := startServer(t)
	_, w, r := dialRaw(t, addr)
	h := validHello()
	h.Shards = 2
	open(t, w, r, h)
	// create(c=1, i=2); update(c=1); next(i=2) → match; free 2; barrier.
	for _, err := range []error{
		w.WriteEvent(0, []uint64{1, 2}),
		w.WriteEvent(1, []uint64{1}),
		w.WriteEvent(2, []uint64{2}),
		w.WriteFree([]uint64{2}),
		w.WriteSync(wire.TBarrier, 1),
		w.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	verdicts := 0
	for msg := (wire.Msg{}); msg.Type != wire.TBarrierAck; {
		if err := r.Next(&msg); err != nil {
			t.Fatalf("stream ended before the barrier ack: %v", err)
		}
		if msg.Type == wire.TVerdict {
			verdicts++
		}
	}
	if verdicts != 1 {
		t.Errorf("%d verdicts ahead of the barrier ack, want the one match", verdicts)
	}
	// next(i=2) → error.
	if err := w.WriteEvent(2, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := expectError(t, r); !strings.Contains(msg, "free") {
		t.Errorf("error %q does not mention the free", msg)
	}
}

// TestFreeBeforeFirstMentionIsFinal: freeing an ID the server has never
// seen must still make that ID's death final — a later event naming it is
// use-after-free, not a fresh allocation.
func TestFreeBeforeFirstMentionIsFinal(t *testing.T) {
	addr := startServer(t)
	_, w, r := dialRaw(t, addr)
	hello(t, w, validHello())
	var msg wire.Msg
	if err := r.Next(&msg); err != nil || msg.Type != wire.THelloAck {
		t.Fatalf("no HelloAck: %v %d", err, msg.Type)
	}
	if err := w.WriteFree([]uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(0, []uint64{7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := expectError(t, r); !strings.Contains(msg, "free") {
		t.Errorf("error %q does not mention the free", msg)
	}
}

// TestBadSymbolAndArity: out-of-range symbols and wrong value counts are
// protocol errors, not panics.
func TestBadSymbolAndArity(t *testing.T) {
	eachFront(t, func(t *testing.T, addr string) {
		for name, ev := range map[string]wire.Event{
			"symbol":   {Sym: 99, IDs: []uint64{1}},
			"negative": {Sym: 0, IDs: []uint64{}},
			"arity":    {Sym: 0, IDs: []uint64{1, 2, 3}},
		} {
			t.Run(name, func(t *testing.T) {
				_, w, r := dialRaw(t, addr)
				open(t, w, r, validHello())
				if err := w.WriteEvent(ev.Sym, ev.IDs); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				expectError(t, r)
			})
		}
	})
}

// TestRouterRefusals: what a router refuses and a node accepts. Slot
// sessions are sequential, so a sharded backend cannot be asked for; and
// the frames a router sends its nodes — the NodeHello marker, the handoff
// bracket — terminate on nodes, never on another router.
func TestRouterRefusals(t *testing.T) {
	addr := startRouter(t)
	for name, tc := range map[string]struct {
		send func(t *testing.T, w *wire.Writer, r *wire.Reader)
		want string
	}{
		"shards": {func(t *testing.T, w *wire.Writer, r *wire.Reader) {
			h := validHello()
			h.Shards = 2
			hello(t, w, h)
		}, "Shards"},
		"nodehello": {func(t *testing.T, w *wire.Writer, r *wire.Reader) {
			w.WriteNodeHello(wire.NodeHello{Router: 1, Slot: 0})
			hello(t, w, validHello())
		}, "NodeHello"},
		"handoffbegin": {func(t *testing.T, w *wire.Writer, r *wire.Reader) {
			open(t, w, r, validHello())
			w.WriteHandoffBegin(wire.HandoffBegin{Skip: 1})
			w.Flush()
		}, "unexpected message type"},
		"handoffend": {func(t *testing.T, w *wire.Writer, r *wire.Reader) {
			open(t, w, r, validHello())
			w.WriteSync(wire.THandoffEnd, 1)
			w.Flush()
		}, "unexpected message type"},
	} {
		t.Run(name, func(t *testing.T) {
			_, w, r := dialRaw(t, addr)
			tc.send(t, w, r)
			if msg := expectError(t, r); !strings.Contains(msg, tc.want) {
				t.Errorf("error %q does not mention %q", msg, tc.want)
			}
		})
	}
}

// TestHandoffNeedsNodeHello: a node honours the handoff bracket only on a
// session a router marked with a NodeHello.
func TestHandoffNeedsNodeHello(t *testing.T) {
	_, w, r := dialRaw(t, startServer(t))
	open(t, w, r, validHello())
	if err := w.WriteHandoffBegin(wire.HandoffBegin{Skip: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if msg := expectError(t, r); !strings.Contains(msg, "NodeHello") {
		t.Errorf("error %q does not mention the missing NodeHello", msg)
	}
}

// TestFlightWindowDump covers Options.FlightWindow: a session on a server
// with a flight recorder gets its recent records dumped to Logf when a
// failure verdict fires, including the event that triggered it and
// positioned frees, with the client's own object IDs.
func TestFlightWindowDump(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		logMu sync.Mutex
		logs  []string
	)
	srv := server.New(server.Options{
		FlightWindow: 8,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	defer func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	cl, err := remote.Dial(l.Addr().String(), remote.Options{
		Prop:   "HasNext",
		GC:     monitor.GCCoenable,
		Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	stale, it := h.Alloc("stale"), h.Alloc("it")
	if err := monitor.EmitNamed(cl, "hasnexttrue", stale); err != nil {
		t.Fatal(err)
	}
	cl.Free(stale)
	h.Free(stale)
	if err := monitor.EmitNamed(cl, "hasnexttrue", it); err != nil {
		t.Fatal(err)
	}
	if err := monitor.EmitNamed(cl, "next", it); err != nil {
		t.Fatal(err)
	}
	if err := monitor.EmitNamed(cl, "next", it); err != nil { // next without hasNext: error
		t.Fatal(err)
	}
	cl.Flush()
	cl.Close()

	logMu.Lock()
	defer logMu.Unlock()
	var dump string
	for _, line := range logs {
		if strings.Contains(line, "flight window:") {
			dump = line
			break
		}
	}
	if dump == "" {
		t.Fatalf("no flight-window dump in logs: %q", logs)
	}
	for _, want := range []string{"hasnexttrue", "next", "free"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump %q lacks %q", dump, want)
		}
	}
	if !strings.Contains(dump, fmt.Sprintf("[%d]", it.ID())) {
		t.Errorf("dump %q lacks the failing object ID %d", dump, it.ID())
	}
}
