package wire

import (
	"bytes"
	"net"
	"testing"
	"time"

	"rvgo/internal/conformance"
)

// peer is a scripted server side: it acks the Hello with the given window
// and hands every later frame's type to frames. It never grants credit or
// acks on its own; tests do that through w.
type peer struct {
	conn   net.Conn
	w      *Writer
	frames chan byte
}

// dialPeer opens a Producer session against a scripted peer over loopback
// TCP. The producer's connection counts its writes.
func dialPeer(t *testing.T, window uint64) (*Producer, *conformance.CountingConn, *peer) {
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
		pr := &peer{conn: conn, w: NewWriter(conn), frames: make(chan byte, 1<<16)}
		r := NewReader(conn)
		var msg Msg
		if err := r.Next(&msg); err != nil || msg.Type != THello {
			conn.Close()
			return
		}
		pr.w.WriteHelloAck(HelloAck{Window: window})
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
	p := NewProducer(cc, "test")
	if _, err := p.Handshake(nil, Hello{Version: Version}); err != nil {
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
// blocks, and the tail — with nobody calling anything — on the linger
// deadline.
func TestProducerBlockAndLinger(t *testing.T) {
	p, cc, pr := dialPeer(t, 1<<20)
	p.Start(func(Verdict) {}, nil)
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
		pr.expect(t, TEvent, time.Second)
		pr.expect(t, TFree, time.Second)
	}
	writes, bytes := cc.Counts()
	if budget := conformance.WriteBudget(bytes, elapsed); bytes < 2*blockSize || writes > budget {
		t.Errorf("%d frames (%d bytes, %v) took %d writes, want <= %d", 2*n, bytes, elapsed, writes, budget)
	}

	// One more free on the now idle producer: the linger deadline sends it.
	if !p.Free([]uint64{1}) {
		t.Fatal(p.Err())
	}
	pr.expect(t, TFree, 50*linger)
}

// TestProducerPeerMustAct: the third trigger. An empty window flushes what
// is buffered (those events earn the refill) and blocks until the grant; a
// sync op flushes and blocks until its ack.
func TestProducerPeerMustAct(t *testing.T) {
	p, _, pr := dialPeer(t, 1)
	p.Start(func(Verdict) {}, nil)
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
	pr.expect(t, TEvent, time.Second)
	select {
	case <-acquired:
		t.Fatal("Acquire returned on an empty window")
	case <-time.After(20 * linger):
	}
	pr.w.WriteCredit(3)
	pr.w.Flush()
	if stalled := <-acquired; !stalled {
		t.Error("Acquire waited for the grant but did not report the stall")
	}

	done := make(chan bool)
	go func() {
		_, ok := p.RoundTrip(TBarrier)
		done <- ok
	}()
	pr.expect(t, TBarrier, time.Second)
	pr.w.WriteSync(TBarrierAck, 1)
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
	p.Start(func(Verdict) {}, func() { close(failed) })
	defer p.Close()

	p.Acquire(1)
	acquired, synced := make(chan struct{}), make(chan bool)
	go func() { p.Acquire(1); close(acquired) }()
	go func() { _, ok := p.RoundTrip(TFlush); synced <- ok }()
	pr.expect(t, TFlush, time.Second)
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

// TestWriterFrameNoAlloc: encoding a frame puts nothing on the heap.
func TestWriterFrameNoAlloc(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ids := []uint64{1 << 40, 2}
	if n := testing.AllocsPerRun(1000, func() {
		w.WriteEvent(3, ids)
		w.WriteFree(ids)
		buf.Reset()
	}); n != 0 {
		t.Errorf("WriteEvent+WriteFree allocate %v objects per run", n)
	}
}
