package cluster_test

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rvgo/internal/cluster"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/remote"
	"rvgo/internal/shard"
)

// TestRouterStatusz drives a session through a two-node router, kills the
// node hosting slots, and checks the introspection surface the CI cluster
// smoke scripts against: node health flips, handoff counters move, and
// /statusz serves the same document over HTTP.
func TestRouterStatusz(t *testing.T) {
	nodes, dial := startNodes(t, "a", "b")
	rtr, err := cluster.NewRouter(cluster.RouterOptions{
		Nodes: []string{"a", "b"},
		Dial:  dial,
		Probe: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rtr.Serve(l)
	t.Cleanup(func() { rtr.Shutdown(time.Second) })

	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := shard.NewRouter(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	bsym := -1
	for sym, ev := range spec.Events {
		if !ev.Params.Has(sr.Pivot()) {
			bsym = sym
			break
		}
	}

	cl, err := remote.Dial(l.Addr().String(), remote.Options{
		Prop:     "UnsafeIter",
		GC:       monitor.GCCoenable,
		Creation: monitor.CreateEnable,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	monitor.Emit(cl, bsym, testRef(1))
	cl.Barrier()

	st := rtr.Statusz()
	if st.Active != 1 || len(st.Sessions) != 1 {
		t.Fatalf("Statusz sessions = %d active, %d listed; want 1", st.Active, len(st.Sessions))
	}
	if st.Events == 0 {
		t.Error("Statusz.Events is zero after an accepted event")
	}
	if len(st.Nodes) != 2 || !st.Nodes[0].Healthy || !st.Nodes[1].Healthy {
		t.Fatalf("Statusz.Nodes = %+v, want both healthy", st.Nodes)
	}

	// Kill whichever node hosts slots, forcing a crash handoff onto the
	// survivor.
	victim := ""
	for _, ns := range st.Sessions[0].Nodes {
		if ns.Slots > 0 {
			victim = ns.Addr
			break
		}
	}
	if victim == "" {
		t.Fatalf("no node hosts slots: %+v", st.Sessions[0].Nodes)
	}
	nodes[victim].kill()
	monitor.Emit(cl, bsym, testRef(2))
	cl.Barrier() // settles only after every slot is re-homed and live

	st = rtr.Statusz()
	if st.Handoffs == 0 || st.HandoffRecords == 0 {
		t.Errorf("after killing %s: Handoffs = %d, HandoffRecords = %d; want both nonzero", victim, st.Handoffs, st.HandoffRecords)
	}
	for _, n := range st.Nodes {
		if n.Addr == victim && n.Healthy {
			t.Errorf("killed node %s still reported healthy", victim)
		}
	}

	// The same document over HTTP.
	web := httptest.NewServer(rtr.DebugHandler())
	defer web.Close()
	resp, err := http.Get(web.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc cluster.Statusz
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Handoffs != st.Handoffs || len(doc.Nodes) != 2 {
		t.Errorf("/statusz = %+v, want handoffs %d over 2 nodes", doc, st.Handoffs)
	}
	resp, err = http.Get(web.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics: %s", resp.Status)
	}
}
