package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The write block is the producer's unit of work: frames buffer until
// blockSize bytes have accumulated, and a dirty buffer never waits longer
// than linger. Both are fixed — a block small enough that client and
// server keep overlapping on a steady stream, a linger that bounds the
// verdict lag a quiet producer adds.
const (
	blockSize = 4 << 10
	linger    = time.Millisecond
)

// byeToken is the reserved pending-map key for the ByeAck (tokens handed
// to sync ops start at 1).
const byeToken = 0

// Producer is the producer half of a session: the side that sends events,
// deaths and sync requests and receives verdicts, releases, credit and
// acks. Both
// clients of the protocol — internal/remote's Client and the cluster
// tier's slot links — are built on it.
//
// An event or a free is an ordinary buffered record. Bytes leave the
// process only when (a) a write block has accumulated, (b) the linger
// deadline expires on a dirty buffer, or (c) the peer must act before the
// producer can continue: a sync op awaiting its ack, or an empty credit
// window. A death therefore costs what an event costs, and its meaning
// does not depend on when it is sent: the stream is ordered, so a free's
// position among the frames is the point in the trace at which the
// objects die.
//
// All methods are safe for concurrent use. The read loop never takes the
// write lock, so a write stalled on TCP backpressure cannot wedge the
// inbound stream that feeds credit back to unblock it.
type Producer struct {
	conn  net.Conn
	name  string // error prefix: who lost what
	r     *Reader
	lanes uint64 // the peer's HelloAck.Lanes: a Release naming another lane is a violation

	// wmu serializes frame writes, flushes and the linger state.
	wmu   sync.Mutex
	w     *Writer
	timer *time.Timer // linger deadline; allocated at the first arm, then re-armed
	armed bool        // timer pending
	done  bool        // Close called: the timer must leave the conn alone

	// credits is the event window. Spending is lock-free; cmu and cond
	// exist for the producers that found it empty.
	credits atomic.Int64
	cmu     sync.Mutex
	cond    *sync.Cond

	// pmu guards the pending sync-operation map and the sticky error.
	pmu     sync.Mutex
	pending map[uint64]chan Msg
	token   uint64
	err     error
	failed  atomic.Bool
	onFail  func()

	started    bool // Start called: Close waits for the read loop
	readerDone chan struct{}
}

// NewProducer wraps an established connection. name prefixes the session's
// errors ("remote", "cluster: node n1").
func NewProducer(conn net.Conn, name string) *Producer {
	p := &Producer{
		conn:       conn,
		name:       name,
		r:          NewReader(conn),
		w:          NewWriter(conn),
		pending:    map[uint64]chan Msg{},
		readerDone: make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.cmu)
	return p
}

// Handshake opens the session: an optional NodeHello marker, the Hello,
// and the peer's HelloAck, whose window becomes the initial credit and
// whose lane count, at least 1, bounds the lanes its Releases may name. The
// caller verifies the ack against its own spec and then calls Start, or
// calls Close if either step failed.
func (p *Producer) Handshake(node *NodeHello, h Hello) (HelloAck, error) {
	var err error
	if node != nil {
		err = p.w.WriteNodeHello(*node)
	}
	if err == nil {
		err = p.w.WriteHello(h)
	}
	if err == nil {
		err = p.w.Flush()
	}
	if err != nil {
		return HelloAck{}, fmt.Errorf("%s: %w", p.name, err)
	}
	var msg Msg
	if err := p.r.Next(&msg); err != nil {
		return HelloAck{}, fmt.Errorf("%s: reading HelloAck: %w", p.name, err)
	}
	switch msg.Type {
	case THelloAck:
	case TError:
		return HelloAck{}, fmt.Errorf("%s: session refused: %s", p.name, msg.Error.Msg)
	default:
		return HelloAck{}, fmt.Errorf("%s: expected HelloAck, got message type %d", p.name, msg.Type)
	}
	if msg.HelloAck.Lanes < 1 || msg.HelloAck.Lanes > MaxReleaseLanes {
		return HelloAck{}, fmt.Errorf("%s: HelloAck reports %d lanes, want 1..%d", p.name, msg.HelloAck.Lanes, MaxReleaseLanes)
	}
	p.lanes = msg.HelloAck.Lanes
	p.credits.Store(int64(msg.HelloAck.Window))
	return msg.HelloAck, nil
}

// Start launches the read loop: verdicts go to onVerdict and releases to
// onRelease (both on the reader goroutine, in stream order; they must not
// call back into the Producer), credit to the window, acks to their
// waiters. A release naming a lane the HelloAck did not announce fails the
// session. onFail, when non-nil, runs once if the session dies with an
// error.
func (p *Producer) Start(onVerdict func(Verdict), onRelease func(Release), onFail func()) {
	p.onFail = onFail
	p.started = true
	go p.readLoop(onVerdict, onRelease)
}

// readLoop drains the inbound stream. On any exit every still-pending
// waiter is released (a sync op racing Close can land after the Bye and
// never be answered; its caller gets the zero result, not a hang).
func (p *Producer) readLoop(onVerdict func(Verdict), onRelease func(Release)) {
	defer close(p.readerDone)
	defer p.drainPending()
	var msg Msg
	for {
		if err := p.r.Next(&msg); err != nil {
			p.fail(fmt.Errorf("%s: connection lost: %w", p.name, err))
			return
		}
		switch msg.Type {
		case TVerdict:
			onVerdict(msg.Verdict)
		case TRelease:
			if msg.Release.Lane >= p.lanes {
				p.fail(fmt.Errorf("%s: release names lane %d of %d", p.name, msg.Release.Lane, p.lanes))
				return
			}
			onRelease(msg.Release)
		case TCredit:
			p.grant(int64(msg.Credit.N))
		case TBarrierAck, TFlushAck:
			p.complete(msg.Sync.Token, msg)
		case TStats, THandoffAck:
			p.complete(msg.Stats.Token, msg)
		case TByeAck:
			// ByeAck carries no token; it completes the pending Bye.
			p.complete(byeToken, msg)
			return
		case TError:
			p.fail(fmt.Errorf("%s: peer error: %s", p.name, msg.Error.Msg))
			return
		default:
			p.fail(fmt.Errorf("%s: unexpected message type %d", p.name, msg.Type))
			return
		}
	}
}

// complete hands an ack to its waiter.
func (p *Producer) complete(token uint64, msg Msg) {
	p.pmu.Lock()
	ch := p.pending[token]
	delete(p.pending, token)
	p.pmu.Unlock()
	if ch != nil {
		ch <- msg
	}
}

// fail records the sticky error, releases every waiter and floods the
// window so no producer hangs on a dead peer.
func (p *Producer) fail(err error) {
	p.pmu.Lock()
	if p.err != nil {
		p.pmu.Unlock()
		return
	}
	p.err = err
	p.failed.Store(true)
	p.pmu.Unlock()
	p.drainPending()
	p.grant(1 << 40)
	if p.onFail != nil {
		p.onFail()
	}
}

// drainPending closes every pending waiter channel (each sees ok=false).
func (p *Producer) drainPending() {
	p.pmu.Lock()
	chans := make([]chan Msg, 0, len(p.pending))
	for tok, ch := range p.pending {
		chans = append(chans, ch)
		delete(p.pending, tok)
	}
	p.pmu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
}

// Err returns the sticky session error, if any: connection loss, a peer
// Error frame, or a protocol violation.
func (p *Producer) Err() error {
	p.pmu.Lock()
	defer p.pmu.Unlock()
	return p.err
}

// Failed reports whether the session has died (Err without the lock).
func (p *Producer) Failed() bool { return p.failed.Load() }

// Acquire takes up to max event credits, at least one: while the window is
// empty it flushes — the buffered events are what will earn the refill —
// and blocks. stalled reports whether it had to wait for the peer. On a
// dead session it returns at once (the window is flooded); callers check
// Failed.
func (p *Producer) Acquire(max int) (n int, stalled bool) {
	for {
		if c := p.credits.Load(); c > 0 {
			take := int64(max)
			if c < take {
				take = c
			}
			if p.credits.CompareAndSwap(c, c-take) {
				return int(take), stalled
			}
			continue
		}
		stalled = true
		p.wmu.Lock()
		p.flushLocked()
		p.wmu.Unlock()
		p.cmu.Lock()
		for p.credits.Load() <= 0 {
			p.cond.Wait()
		}
		p.cmu.Unlock()
	}
}

// Refund returns credits a caller acquired and did not use.
func (p *Producer) Refund(n int) { p.grant(int64(n)) }

// grant adds n credits to the window and wakes the producers waiting on it.
func (p *Producer) grant(n int64) {
	p.cmu.Lock()
	p.credits.Add(n)
	p.cmu.Unlock()
	p.cond.Broadcast()
}

// Event buffers one event frame; the caller holds a credit for it.
func (p *Producer) Event(sym int, ids []uint64) bool {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.wroteLocked(p.w.WriteEvent(sym, ids))
}

// Free buffers one free frame. Frees are credit-exempt.
func (p *Producer) Free(ids []uint64) bool {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.wroteLocked(p.w.WriteFree(ids))
}

// Send runs f, which writes any number of frames, under the write lock:
// one lock acquisition and one block check for the whole batch.
func (p *Producer) Send(f func(*Writer) error) bool {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.wroteLocked(f(p.w))
}

// wroteLocked applies the block policy after frames were buffered: a full
// block leaves now, anything less arms the linger deadline.
func (p *Producer) wroteLocked(err error) bool {
	if err == nil {
		switch n := p.w.Buffered(); {
		case n >= blockSize:
			return p.flushLocked()
		case n > 0 && !p.armed:
			p.armed = true
			if p.timer == nil {
				p.timer = time.AfterFunc(linger, p.lingerFlush)
			} else {
				p.timer.Reset(linger)
			}
		}
		return true
	}
	p.fail(err)
	return false
}

func (p *Producer) flushLocked() bool {
	if err := p.w.Flush(); err != nil {
		p.fail(err)
		return false
	}
	return true
}

// lingerFlush is the linger deadline: whatever is still buffered leaves.
func (p *Producer) lingerFlush() {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.armed = false
	if !p.done {
		p.flushLocked()
	}
}

// RoundTrip issues a token frame of type t, flushes, and waits for the
// ack. ok is false when the session is dead.
func (p *Producer) RoundTrip(t byte) (Msg, bool) {
	return p.await(func(tok uint64) error { return p.w.WriteSync(t, tok) }, false)
}

// Bye performs the orderly shutdown: the peer settles its backend and
// answers with the final counters, ordered behind every verdict on the
// stream. The caller still calls Close.
func (p *Producer) Bye() (Stats, bool) {
	msg, ok := p.await(func(uint64) error { return p.w.WriteBye() }, true)
	return msg.Stats, ok
}

// await registers a waiter (under byeToken or a fresh token), writes the
// request frame, flushes — the peer must act — and blocks for the ack.
func (p *Producer) await(write func(tok uint64) error, bye bool) (Msg, bool) {
	p.pmu.Lock()
	if p.err != nil {
		p.pmu.Unlock()
		return Msg{}, false
	}
	tok := uint64(byeToken)
	if !bye {
		p.token++
		tok = p.token
	}
	ch := make(chan Msg, 1)
	p.pending[tok] = ch
	p.pmu.Unlock()

	p.wmu.Lock()
	err := write(tok)
	if err == nil {
		err = p.w.Flush()
	}
	p.wmu.Unlock()
	if err != nil {
		p.fail(err)
		return Msg{}, false
	}
	msg, ok := <-ch
	return msg, ok
}

// Close releases the session without a handshake (after Bye, on the crash
// path, or when opening it failed): the connection closes and the read
// loop, if it was started, is waited for.
func (p *Producer) Close() {
	p.wmu.Lock()
	p.done = true
	if p.timer != nil {
		p.timer.Stop()
	}
	p.wmu.Unlock()
	p.conn.Close()
	if p.started {
		<-p.readerDone
	}
}
