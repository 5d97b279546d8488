// client.go: Client implements monitor.Runtime over a whole cluster. It
// is internal/remote's client with a different sink: the same ref-level
// Front (spec, remote-ID table, verdict reconstruction, shutdown state),
// over a fanout — which does the pivot routing, the lane masks and verdict
// merging — where the remote Client has one wire.Producer. Its lanes are
// the slots: an entry of the Front's table goes once every slot has
// released the object. This is what rvgo.WithCluster wraps.
package cluster

import (
	"net"

	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/remote"
)

// Options configures a cluster session.
type Options struct {
	// Prop names a property from the nodes' built-in library. Exactly one
	// of Prop and SpecSource must be set.
	Prop string
	// SpecSource is .rv specification source compiled by every side; it
	// must define exactly one property.
	SpecSource string
	// GC is the monitor GC policy for every slot session.
	GC monitor.GCPolicy
	// Avoid is the creation-avoidance mode for every slot session's
	// engine. Static guards only: profiles do not cross the wire.
	Avoid monitor.AvoidMode
	// Nodes are the rvserve addresses forming the initial membership.
	Nodes []string
	// Seed perturbs the pivot→slot and slot→node hashes. Sessions that
	// must agree on placement (none today) should share it; everyone else
	// can leave it zero.
	Seed uint64
	// Slots is the virtual-shard ring size (0 = default). More slots mean
	// finer rebalancing and smaller handoffs, but more sessions per node.
	Slots int
	// OnVerdict receives goal verdicts, serialized. It runs on a link
	// reader goroutine and must not call back into the Client.
	OnVerdict func(monitor.Verdict)
	// Dial overrides the transport (tests use in-process pipes).
	Dial func(addr string) (net.Conn, error)
	// Logf receives diagnostic output (nil = silent).
	Logf func(string, ...any)
	// Metrics, when set, interns rv_cluster_* series for this session.
	Metrics *metrics.ClusterSeries
}

// Client is a cluster monitoring session: the remote client's ref-level
// Front over a fanout, plus membership. It implements monitor.Runtime.
type Client struct {
	*remote.Front
	f *fanout
}

var _ monitor.Runtime = (*Client)(nil)

// Open resolves the spec and connects every slot session across the
// given nodes.
func Open(opts Options) (*Client, error) {
	front, err := remote.NewFront(opts.Prop, opts.SpecSource, opts.OnVerdict)
	if err != nil {
		return nil, err
	}
	f, err := newFanout(front.Spec(), fanoutConfig{
		hello:     front.Hello(opts.GC, opts.Avoid, 1),
		nodes:     opts.Nodes,
		seed:      opts.Seed,
		slots:     opts.Slots,
		dial:      opts.Dial,
		logf:      opts.Logf,
		met:       opts.Metrics,
		onVerdict: front.DeliverVerdict, // the fanout serializes deliveries
		onRelease: front.ReleaseLanes,
	})
	if err != nil {
		return nil, err
	}
	front.SetLanes(f.Lanes())
	return &Client{Front: front, f: f}, nil
}

// Err returns the sticky session error, if any. Runtime methods degrade
// to no-ops once it is set.
func (c *Client) Err() error { return c.f.Err() }

// Dispatch implements monitor.Runtime. It blocks while the credit window
// of any slot the event goes to is exhausted.
func (c *Client) Dispatch(sym int, theta param.Instance) {
	var buf [param.MaxParams]uint64
	c.f.Event(sym, c.EventIDs(buf[:0], sym, theta))
}

// Free implements monitor.Runtime's death positioning: the death goes to
// every slot the object's records went to, each of whose nodes positions
// it in its backend's stream before applying it, and the fanout releases
// the object on the other slots' lanes.
func (c *Client) Free(ref heap.Ref) {
	id := [1]uint64{ref.ID()}
	c.Arm(id[0])
	c.f.Free(id[:])
}

// Barrier implements monitor.Runtime: every event dispatched before the
// call has been processed on its node and its verdicts delivered.
func (c *Client) Barrier() { c.f.Barrier() }

// Flush implements monitor.Runtime: a full expunge/compaction pass on
// every node, settling the Figure 10 counters cluster-wide.
func (c *Client) Flush() { c.f.Flush() }

// Stats implements monitor.Runtime: the merged cluster counters. After
// Close it returns the final settled counters.
func (c *Client) Stats() monitor.Stats {
	if st, closed := c.Final(); closed {
		return st
	}
	st, _ := c.f.Stats() // a fanout error is sticky: Err reports it
	return st
}

// Close implements monitor.Runtime: orderly shutdown of every slot
// session; the merged final counters remain available through Stats.
// Close is idempotent.
func (c *Client) Close() {
	c.Shutdown(func() monitor.Stats {
		st, _ := c.f.Close()
		return st
	})
}

// AddNode admits a node to the session's membership, migrating the slots
// the rendezvous assignment places on it.
func (c *Client) AddNode(addr string) error { return c.f.AddNode(addr) }

// RemoveNode drains a node and removes it from the membership.
func (c *Client) RemoveNode(addr string) error { return c.f.RemoveNode(addr) }

// Nodes reports the membership and per-node slot counts.
func (c *Client) Nodes() []NodeStatus { return c.f.Nodes() }
