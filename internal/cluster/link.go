// link.go: one downstream slot session — the router side of a marked
// (NodeHello) wire session against an rvserve node. A link is the
// cluster's unit of ordered delivery: every frame written to it is
// processed by the node in order, which is what lets a slot's slices see
// events and deaths exactly as the upstream client positioned them.
//
// The link is a wire.Producer — the same write half, credit window,
// linger deadline and read loop internal/remote's Client runs on — used
// below the ref/instance layer: IDs in, IDs out, because the router never
// materializes objects; translation to heap.Refs happens only at the true
// client (Client in this package, or the upstream session's own tables).
// Events and frees are buffered records that leave a write block at a
// time; a free's position in the slot's ordered stream is the death's
// position in the trace, so nothing is flushed on its account.
package cluster

import (
	"fmt"
	"net"

	"rvgo/internal/monitor"
	"rvgo/internal/remote"
	"rvgo/internal/wire"
)

// link is one slot session on a node.
type link struct {
	addr string
	p    *wire.Producer
}

// openLink dials a node, marks the session with a NodeHello, and runs the
// ordinary Hello handshake, verifying the node compiled the same spec.
// onVerdict runs on the link's reader goroutine and must not call back;
// onDown is invoked once if the session dies with an error.
func openLink(dial func(string) (net.Conn, error), addr string, router uint64, slot int,
	spec *monitor.Spec, hello wire.Hello, onVerdict func(wire.Verdict), onDown func()) (*link, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", addr, err)
	}
	l := &link{addr: addr, p: wire.NewProducer(conn, "cluster: node "+addr)}
	ack, err := l.p.Handshake(&wire.NodeHello{Router: router, Slot: uint64(slot)}, hello)
	if err == nil {
		if err = remote.VerifyAck(spec, ack); err != nil {
			err = fmt.Errorf("cluster: node %s: %w", addr, err)
		}
	}
	if err != nil {
		l.p.Close()
		return nil, err
	}
	l.p.Start(onVerdict, onDown)
	return l, nil
}

// dead reports whether the link's session has failed.
func (l *link) dead() bool { return l.p.Failed() }

// send writes journal records from *cur up to (not including) record
// upto: one credit acquisition covering the events among them and one
// write-lock hold per pass, frees riding along credit-exempt. It returns
// after one pass — short of upto when the window granted fewer credits
// than there were events — and the caller loops. ok is false when the
// link died; stalled reports that the pass waited for the node.
func (l *link) send(j *journal, cur *jcursor, upto int) (stalled, ok bool) {
	credits := 0
	if need := j.events(*cur, upto); need > 0 {
		credits, stalled = l.p.Acquire(need)
		if l.dead() {
			return stalled, false
		}
	}
	ok = l.p.Send(func(w *wire.Writer) error {
		for cur.rec < upto {
			sym, ids := j.at(cur)
			var err error
			if sym < 0 {
				err = w.WriteFree(ids)
			} else if credits == 0 {
				return nil
			} else {
				credits--
				err = w.WriteEvent(sym, ids)
			}
			if err != nil {
				return err
			}
			cur.next(len(ids))
		}
		return nil
	})
	return stalled, ok
}

// handoffBegin opens a handoff bracket on the link (no ack).
func (l *link) handoffBegin(skip uint64) bool {
	return l.p.Send(func(w *wire.Writer) error {
		return w.WriteHandoffBegin(wire.HandoffBegin{Skip: skip})
	})
}

func (l *link) barrier() bool { _, ok := l.p.RoundTrip(wire.TBarrier); return ok }
func (l *link) flush() bool   { _, ok := l.p.RoundTrip(wire.TFlush); return ok }

func (l *link) stats() (wire.Stats, bool) {
	msg, ok := l.p.RoundTrip(wire.TStatsReq)
	return msg.Stats, ok
}

// handoffEnd closes the handoff bracket: the node flushes its backend and
// acks with the settled counters.
func (l *link) handoffEnd() (wire.Stats, bool) {
	msg, ok := l.p.RoundTrip(wire.THandoffEnd)
	return msg.Stats, ok
}

// close performs the orderly Bye → ByeAck shutdown and returns the node's
// final settled counters. The ByeAck is ordered behind every verdict on
// the stream, so after close returns the slot's verdict count is settled.
func (l *link) close() (wire.Stats, bool) {
	final, ok := l.p.Bye()
	l.p.Close()
	return final, ok
}

// shutdown abandons the link without the Bye handshake (the crash path —
// the node is gone, or the slot has been journal-replayed elsewhere).
func (l *link) shutdown() { l.p.Close() }
