package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rvgo/internal/cluster"
	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/wire"
)

// TestLinkFreesRideTheBlock: every slot link, like the remote client,
// sends events and frees in write blocks — 1000 deaths on a slot are 1000
// buffered records, not 1000 writes. A free goes only to the slot its
// object's records went to, so each slot is given its own collections.
func TestLinkFreesRideTheBlock(t *testing.T) {
	_, dial := startNodes(t, "n1", "n2")
	var mu sync.Mutex
	var conns []*conformance.CountingConn
	c, err := cluster.Open(cluster.Options{
		Prop: "UnsafeIter", GC: monitor.GCCoenable,
		Nodes: []string{"n1", "n2"},
		Dial: func(addr string) (net.Conn, error) {
			raw, err := dial(addr)
			if err != nil {
				return nil, err
			}
			cc := &conformance.CountingConn{Conn: raw}
			mu.Lock()
			conns = append(conns, cc)
			mu.Unlock()
			return cc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, cc := range conns {
		cc.Reset()
	}

	// Every link sees 1000 iterators of its own collections: 2000 events,
	// under its 4096-event window, so nothing stalls, and 1000 frees.
	const iters = 1000
	h := heap.New()
	start := time.Now()
	for slot := range defaultSlots {
		for k := 0; k < iters; {
			col, it := h.Alloc("c"), h.Alloc("i")
			if slotOf(col.ID()) != slot {
				continue
			}
			monitor.Emit(c, 0, col, it)
			monitor.Emit(c, 2, it)
			c.Free(it)
			k++
		}
	}
	elapsed := time.Since(start)
	time.Sleep(20 * conformance.WriteLinger)
	if len(conns) < 2 {
		t.Fatalf("%d links opened, want one per slot", len(conns))
	}
	for k, cc := range conns {
		writes, bytes := cc.Counts()
		if bytes == 0 {
			t.Errorf("link %d: nothing was written", k)
		}
		if budget := conformance.WriteBudget(bytes, elapsed); writes > budget {
			t.Errorf("link %d: %d frees + its events (%d bytes, %v) took %d writes, want <= %d",
				k, iters, bytes, elapsed, writes, budget)
		}
	}
}

// TestClusterIdleProducerTimeliness is the remote client's idle-producer
// bound through the fanout: the verdict, and the free, land within 50ms of
// the producer's last call. A free goes only to the slots its object's
// records went to — one, for HasNext, whose only parameter is the pivot —
// and the fanout has released the object on every other lane by the time
// Free returns. A late verdict is reported with when the last event left
// for its slot and when the verdict came, so a miss says whether the time
// went before or after the slot write.
func TestClusterIdleProducerTimeliness(t *testing.T) {
	for _, withFree := range []bool{false, true} {
		name := "events only"
		if withFree {
			name = "events and a free"
		}
		t.Run(name, func(t *testing.T) {
			nodes, dial := startNodes(t, "n1", "n2")
			var lastWrite atomic.Int64 // UnixNano of the last write to any slot
			verdict := make(chan time.Time, 1)
			c, err := cluster.Open(cluster.Options{
				Prop: "HasNext", GC: monitor.GCCoenable,
				Nodes: []string{"n1", "n2"},
				Dial: func(addr string) (net.Conn, error) {
					conn, err := dial(addr)
					if err != nil {
						return nil, err
					}
					return &stampConn{Conn: conn, last: &lastWrite}, nil
				},
				OnVerdict: func(monitor.Verdict) {
					select {
					case verdict <- time.Now():
					default:
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			it := heap.New().Alloc("i")
			for _, ev := range []string{"hasnexttrue", "next", "next"} {
				if err := monitor.EmitNamed(c, ev, it); err != nil {
					t.Fatal(err)
				}
			}
			if withFree {
				c.Free(it)
				// Every lane but the iterator's slot released it at Free: the
				// slot's own release empties the entry.
				c.Release(slotOf(it.ID()), []uint64{it.ID()})
				if n := c.HeldRefs(); n != 0 {
					t.Errorf("after Free and the slot's release the table holds %d refs, want none", n)
				}
			}
			last := time.Now()
			deadline := time.After(50 * time.Millisecond)
			select {
			case <-verdict:
			case <-deadline:
				came := "had not come a second later"
				select {
				case at := <-verdict:
					came = fmt.Sprintf("came %v after it", at.Sub(last))
				case <-time.After(time.Second):
				}
				t.Fatalf("no verdict within 50ms of the last call: the last slot write was %v after it, and the verdict %s",
					time.Unix(0, lastWrite.Load()).Sub(last), came)
			}
			frees := func() (n float64) {
				for _, nd := range nodes {
					n += conformance.CounterSum(nd.srv.Metrics(), "rv_server_frees_total")
				}
				return n
			}
			for withFree && frees() < 1 {
				select {
				case <-deadline:
					t.Fatal("no slot session applied the free within 50ms of the last call")
				case <-time.After(time.Millisecond):
				}
			}
			if withFree {
				c.Barrier()
				if n := frees(); n != 1 {
					t.Errorf("%v slot sessions applied the free, want the iterator's slot alone", n)
				}
			}
		})
	}
}

// stampConn records the time of its last write.
type stampConn struct {
	net.Conn
	last *atomic.Int64
}

func (c *stampConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.last.Store(time.Now().UnixNano())
	return n, err
}

// TestSlotMovedTwiceOracle is the handoff audit's regression test: a node
// is killed and its slots re-homed by crash replay before a fifth node is
// admitted, so the graceful rebalance toward the newcomer takes some
// slots from donors that were themselves built by a handoff. Such a
// donor's PeakLive carries its own un-journaled HandoffEnd flush; the
// audit must compare only what settles, and the run must match the
// sequential engine like any other.
func TestSlotMovedTwiceOracle(t *testing.T) {
	moved := regexp.MustCompile(`slot (\d+) moved to`)
	var nodes map[string]*testNode
	var c *cluster.Client
	conformance.Diff(t, avrora(t), []conformance.Backend{{
		Name:  "cluster",
		Lanes: defaultSlots,
		Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
			var dial func(string) (net.Conn, error)
			nodes, dial = startNodes(t, "n1", "n2", "n3", "n4", "n5")
			var mu sync.Mutex
			moves := map[string]int{}
			var err error
			c, err = cluster.Open(cluster.Options{
				Prop:      spec.Name,
				GC:        m.GC,
				Nodes:     []string{"n1", "n2", "n3", "n4"},
				Dial:      dial,
				OnVerdict: onVerdict,
				Logf: func(format string, args ...any) {
					if m := moved.FindStringSubmatch(fmt.Sprintf(format, args...)); m != nil {
						mu.Lock()
						moves[m[1]]++
						mu.Unlock()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				mu.Lock()
				defer mu.Unlock()
				for _, n := range moves {
					if n >= 2 {
						return
					}
				}
				t.Errorf("no slot moved twice (moves per slot: %v); the scenario no longer exercises a handoff-built donor", moves)
			})
			return c
		},
		// The barrier makes every link notice the dead node now, so the
		// crash re-homing is over before the join below begins.
		Kill:  func() error { nodes["n2"].kill(); c.Barrier(); return c.Err() },
		Leave: func() error { return c.AddNode("n5") },
	}}, conformance.GCModes())
}

// TestLargeFreeCluster is TestLargeFreeRemote through a two-node fanout:
// every slot journals and sends the long death as consecutive free frames,
// so no handoff replays an oversized frame and no node is evicted.
func TestLargeFreeCluster(t *testing.T) {
	conformance.Diff(t, conformance.LargeFree(t), []conformance.Backend{{
		Name:  "cluster2",
		Lanes: 2,
		Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
			_, dial := startNodes(t, "n1", "n2")
			c, err := cluster.Open(cluster.Options{
				Prop: spec.Name, GC: m.GC,
				Nodes: []string{"n1", "n2"}, Dial: dial, Slots: 2, OnVerdict: onVerdict,
			})
			if err != nil {
				t.Fatal(err)
			}
			return bothNodes{c, t}
		},
	}}, []conformance.Mode{{GC: monitor.GCCoenable}})
}

// bothNodes fails the run if a node left the membership before Close.
type bothNodes struct {
	*cluster.Client
	t *testing.T
}

func (c bothNodes) Close() {
	if n := len(c.Nodes()); n != 2 {
		c.t.Errorf("%d nodes left in the membership, want both", n)
	}
	c.Client.Close()
}

// TestClusterDispatchNoAlloc is the remote client's TestDispatchNoAlloc
// through the fanout: the ID vector the shared front gathers reaches the
// fanout by a concrete call, so neither a pivot-routed event (create) nor
// a broadcast one (next, copied into all 16 slot journals) allocates per
// event — journal chunks amortize to nothing — and neither does a fresh
// pair's stay in the table: its event, its frees (broadcast) and the 16
// slots' releases, handed to the Front as the links would.
func TestClusterDispatchNoAlloc(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	var greeting bytes.Buffer
	w := wire.NewWriter(&greeting)
	w.WriteHelloAck(helloAck(spec, 1<<40))
	w.Flush()
	var conns []*conformance.SinkConn // one per slot; Open dials them in turn
	down := false
	c, err := cluster.Open(cluster.Options{
		Prop: "UnsafeIter", GC: monitor.GCCoenable,
		Nodes: []string{"sink"},
		Dial: func(string) (net.Conn, error) {
			if down {
				return nil, fmt.Errorf("sink is down")
			}
			conns = append(conns, conformance.NewSinkConn(greeting.Bytes()))
			return conns[len(conns)-1], nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// The sinks will never answer a Bye: lose the node instead, so
		// Close has nobody to settle with and nowhere to re-home.
		down = true
		for _, conn := range conns {
			conn.Close()
		}
		c.Close()
	}()
	h := heap.New()
	col, it := h.Alloc("c"), h.Alloc("i")
	for _, ev := range []struct {
		name  string
		sym   int
		theta param.Instance
	}{
		{"routed", 0, param.Of(spec.Events[0].Params, col, it)},
		{"broadcast", 2, param.Of(spec.Events[2].Params, it)},
	} {
		c.Dispatch(ev.sym, ev.theta) // enters the objects into the ref table
		if n := testing.AllocsPerRun(2000, func() { c.Dispatch(ev.sym, ev.theta) }); n != 0 {
			t.Errorf("%s Dispatch allocates %v objects per event, want 0", ev.name, n)
		}
	}

	const runs = 2000
	fresh := make([]*heap.Object, 2*(runs+1))
	for k := range fresh {
		fresh[k] = h.Alloc("o")
	}
	next := 0
	generation := func() {
		col, it := fresh[next], fresh[next+1]
		next += 2
		c.Dispatch(0, param.Of(spec.Events[0].Params, col, it))
		c.Free(col)
		c.Free(it)
		ids := [2]uint64{col.ID(), it.ID()}
		for slot := range 16 {
			c.Release(slot, ids[:])
		}
	}
	if n := testing.AllocsPerRun(runs, generation); n != 0 {
		t.Errorf("a fresh pair's event, frees and releases allocate %v objects, want 0", n)
	}
	if n := c.HeldRefs(); n != 2 {
		t.Errorf("the table holds %d refs after the released generations, want the first pair's 2", n)
	}
}
