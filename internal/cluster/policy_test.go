package cluster_test

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"sync"
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
// sends events and the broadcast frees in write blocks — a death on a
// 16-slot cluster is 16 buffered records, not 16 writes.
func TestLinkFreesRideTheBlock(t *testing.T) {
	_, dial := startNodes(t, "n1", "n2")
	var mu sync.Mutex
	var conns []*conformance.CountingConn
	c, err := cluster.Open(cluster.Options{
		Prop: "UnsafeIter", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
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

	// next(i) broadcasts (the pivot is c), so every link sees 1000 events
	// and 1000 frees — under its 4096-event window, so nothing stalls.
	const iters = 1000
	h := heap.New()
	start := time.Now()
	for k := 0; k < iters; k++ {
		col, it := h.Alloc("c"), h.Alloc("i")
		monitor.Emit(c, 0, col, it)
		monitor.Emit(c, 2, it)
		c.Free(it)
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
// bound through the fanout: verdict and deaths land within 50ms of the
// producer's last call.
func TestClusterIdleProducerTimeliness(t *testing.T) {
	for _, withFree := range []bool{false, true} {
		name := "events only"
		if withFree {
			name = "events and a free"
		}
		t.Run(name, func(t *testing.T) {
			nodes, dial := startNodes(t, "n1", "n2")
			verdict := make(chan struct{}, 1)
			c, err := cluster.Open(cluster.Options{
				Prop: "HasNext", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
				Nodes: []string{"n1", "n2"}, Dial: dial,
				OnVerdict: func(monitor.Verdict) { verdict <- struct{}{} },
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
			}
			deadline := time.After(50 * time.Millisecond)
			select {
			case <-verdict:
			case <-deadline:
				t.Fatal("no verdict within 50ms of the last call")
			}
			frees := func() (n float64) {
				for _, nd := range nodes {
					n += conformance.CounterSum(nd.srv.Metrics(), "rv_server_frees_total")
				}
				return n
			}
			// The free is a rendezvous: one per slot session.
			for withFree && frees() < 16 {
				select {
				case <-deadline:
					t.Fatalf("%v of 16 slot sessions applied the free within 50ms of the last call", frees())
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
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
	conformance.RunClusterOracle(t, func(t *testing.T, prop string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) conformance.ClusterHarness {
		nodes, dial := startNodes(t, "n1", "n2", "n3", "n4", "n5")
		var mu sync.Mutex
		moves := map[string]int{}
		c, err := cluster.Open(cluster.Options{
			Prop:      prop,
			GC:        gc,
			Creation:  monitor.CreateEnable,
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
		return conformance.ClusterHarness{
			RT: c,
			// The barrier makes every link notice the dead node now, so the
			// crash re-homing is over before the join below begins.
			Kill:  func() error { nodes["n2"].kill(); c.Barrier(); return c.Err() },
			Leave: func() error { return c.AddNode("n5") },
		}
	})
}

// TestClusterDispatchNoAlloc is the remote client's TestDispatchNoAlloc
// through the fanout: the ID vector the shared front gathers reaches the
// fanout by a concrete call, so neither a pivot-routed event (create) nor
// a broadcast one (next, copied into all 16 slot journals) allocates per
// event — journal chunks amortize to nothing.
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
		Prop: "UnsafeIter", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
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
}
