package wire_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"rvgo/internal/conformance"
	"rvgo/internal/wire"
)

// peer is a scripted server side: it acks the wire.Hello with the given window
// and hands every later frame's type to frames. It never grants credit or
// acks on its own; tests do that through w.
type peer struct {
	conn   net.Conn
	w      *wire.Writer
	frames chan byte
}

// dialPeer opens a wire.Producer session against a scripted peer over loopback
// TCP. The producer's connection counts its writes.
func dialPeer(t *testing.T, window uint64) (*wire.Producer, *conformance.CountingConn, *peer) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ready := make(chan *peer, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		pr := &peer{conn: conn, w: wire.NewWriter(conn), frames: make(chan byte, 1<<16)}
		r := wire.NewReader(conn)
		var msg wire.Msg
		if err := r.Next(&msg); err != nil || msg.Type != wire.THello {
			conn.Close()
			return
		}
		pr.w.WriteHelloAck(wire.HelloAck{Window: window, Lanes: 1})
		pr.w.Flush()
		ready <- pr
		for r.Next(&msg) == nil {
			pr.frames <- msg.Type
		}
		close(pr.frames)
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &conformance.CountingConn{Conn: raw}
	p := wire.NewProducer(cc, "test")
	if _, err := p.Handshake(nil, wire.Hello{Version: wire.Version}); err != nil {
		t.Fatal(err)
	}
	pr := <-ready
	t.Cleanup(func() { pr.conn.Close() })
	cc.Reset()
	return p, cc, pr
}

func (pr *peer) expect(t *testing.T, want byte, within time.Duration) {
	t.Helper()
	select {
	case got, ok := <-pr.frames:
		if !ok || got != want {
			t.Fatalf("peer read frame type %d (open=%v), want %d", got, ok, want)
		}
	case <-time.After(within):
		t.Fatalf("peer read no frame of type %d within %v", want, within)
	}
}

// TestProducerBlockAndLinger: a stream of events and frees leaves in
// blocks, and the tail — with nobody calling anything — on the conformance.WriteLinger
// deadline.
func TestProducerBlockAndLinger(t *testing.T) {
	p, cc, pr := dialPeer(t, 1<<20)
	p.Start(func(wire.Verdict) {}, func(wire.Release) {}, nil)
	defer p.Close()

	const n = 3000
	start := time.Now()
	for k := 0; k < n; k++ {
		p.Acquire(1)
		if !p.Event(1, []uint64{uint64(k), uint64(k + 1)}) || !p.Free([]uint64{uint64(k)}) {
			t.Fatal(p.Err())
		}
	}
	elapsed := time.Since(start)
	for k := 0; k < n; k++ {
		pr.expect(t, wire.TEvent, time.Second)
		pr.expect(t, wire.TFree, time.Second)
	}
	writes, bytes := cc.Counts()
	if budget := conformance.WriteBudget(bytes, elapsed); bytes < 2*conformance.WriteBlock || writes > budget {
		t.Errorf("%d frames (%d bytes, %v) took %d writes, want <= %d", 2*n, bytes, elapsed, writes, budget)
	}

	// One more free on the now idle producer: the conformance.WriteLinger deadline sends it.
	if !p.Free([]uint64{1}) {
		t.Fatal(p.Err())
	}
	pr.expect(t, wire.TFree, 50*conformance.WriteLinger)
}

// TestProducerPeerMustAct: the third trigger. An empty window flushes what
// is buffered (those events earn the refill) and blocks until the grant; a
// sync op flushes and blocks until its ack.
func TestProducerPeerMustAct(t *testing.T) {
	p, _, pr := dialPeer(t, 1)
	p.Start(func(wire.Verdict) {}, func(wire.Release) {}, nil)
	defer p.Close()

	if n, stalled := p.Acquire(8); n != 1 || stalled {
		t.Fatalf("Acquire(8) on a window of 1 = %d, stalled=%v", n, stalled)
	}
	p.Event(0, []uint64{7})
	acquired := make(chan bool)
	go func() {
		_, stalled := p.Acquire(1)
		acquired <- stalled
	}()
	pr.expect(t, wire.TEvent, time.Second)
	select {
	case <-acquired:
		t.Fatal("Acquire returned on an empty window")
	case <-time.After(20 * conformance.WriteLinger):
	}
	pr.w.WriteCredit(3)
	pr.w.Flush()
	if stalled := <-acquired; !stalled {
		t.Error("Acquire waited for the grant but did not report the stall")
	}

	done := make(chan bool)
	go func() {
		_, ok := p.RoundTrip(wire.TBarrier)
		done <- ok
	}()
	pr.expect(t, wire.TBarrier, time.Second)
	pr.w.WriteSync(wire.TBarrierAck, 1)
	pr.w.Flush()
	if ok := <-done; !ok {
		t.Fatalf("RoundTrip failed: %v", p.Err())
	}
}

// TestProducerFailureReleasesEveryone: when the peer vanishes, a producer
// blocked on credit and one blocked on an ack both return, onFail runs,
// and later calls are refused rather than hung.
func TestProducerFailureReleasesEveryone(t *testing.T) {
	p, _, pr := dialPeer(t, 1)
	failed := make(chan struct{})
	p.Start(func(wire.Verdict) {}, func(wire.Release) {}, func() { close(failed) })
	defer p.Close()

	p.Acquire(1)
	acquired, synced := make(chan struct{}), make(chan bool)
	go func() { p.Acquire(1); close(acquired) }()
	go func() { _, ok := p.RoundTrip(wire.TFlush); synced <- ok }()
	pr.expect(t, wire.TFlush, time.Second)
	pr.conn.Close()
	<-failed
	<-acquired
	if ok := <-synced; ok {
		t.Error("RoundTrip reported an ack from a dead peer")
	}
	if !p.Failed() || p.Err() == nil {
		t.Error("the session did not record its failure")
	}
	if _, ok := p.Bye(); ok {
		t.Error("Bye succeeded on a dead session")
	}
}

// TestProducerReleaseLanes: releases reach onRelease in stream order, and
// one naming a lane the HelloAck did not announce fails the session with an
// error — it never reaches the client's lane mask.
func TestProducerReleaseLanes(t *testing.T) {
	p, _, pr := dialPeer(t, 1) // the peer announces one lane
	failed := make(chan struct{})
	var got []uint64
	p.Start(func(wire.Verdict) {}, func(r wire.Release) {
		if r.Lane != 0 {
			t.Errorf("onRelease got lane %d of 1", r.Lane)
		}
		got = append(got, r.IDs...)
	}, func() { close(failed) })
	defer p.Close()
	pr.w.WriteRelease(0, []uint64{5, 6})
	pr.w.WriteRelease(1, []uint64{7})
	pr.w.Flush()
	select {
	case <-failed:
	case <-time.After(5 * time.Second):
		t.Fatal("a release naming lane 1 of 1 did not fail the session")
	}
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "lane 1 of 1") {
		t.Errorf("session error %v, want one naming lane 1 of 1", err)
	}
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Errorf("onRelease received IDs %v, want [5 6]", got)
	}
}

// TestWriterFrameNoAlloc: encoding a frame puts nothing on the heap.
func TestWriterFrameNoAlloc(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	ids := []uint64{1 << 40, 2}
	if n := testing.AllocsPerRun(1000, func() {
		w.WriteEvent(3, ids)
		w.WriteFree(ids)
		buf.Reset()
	}); n != 0 {
		t.Errorf("WriteEvent+WriteFree allocate %v objects per run", n)
	}
}
