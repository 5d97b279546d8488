package cluster_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rvgo/internal/cluster"
	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/remote"
	"rvgo/internal/server"
	"rvgo/internal/shard"
	"rvgo/internal/wire"
)

// testNode is one fake-addressed cluster node: a real monitoring server on
// a TCP loopback listener, reachable through the shared dial map only
// while its gate is up. Lowering the gate and shutting the server down is
// the test's SIGKILL: live connections die mid-frame, nothing drains.
type testNode struct {
	srv *server.Server
	lst net.Listener
	up  atomic.Bool
}

func (n *testNode) kill() {
	n.up.Store(false)
	n.srv.Shutdown(0)
}

// startNodes runs one server per name and returns the node map plus a
// dial function that resolves the fake names, refusing downed nodes.
func startNodes(t testing.TB, names ...string) (map[string]*testNode, func(string) (net.Conn, error)) {
	t.Helper()
	nodes := map[string]*testNode{}
	for _, name := range names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Options{})
		go srv.Serve(l)
		n := &testNode{srv: srv, lst: l}
		n.up.Store(true)
		nodes[name] = n
		t.Cleanup(func() { srv.Shutdown(time.Second) })
	}
	dial := func(addr string) (net.Conn, error) {
		n := nodes[addr]
		if n == nil {
			return nil, fmt.Errorf("unknown node %q", addr)
		}
		if !n.up.Load() {
			return nil, fmt.Errorf("node %s is down", addr)
		}
		return net.Dial("tcp", n.lst.Addr().String())
	}
	return nodes, dial
}

// TestClusterOracle is the headline acceptance test: the avrora trace
// through a 4-node cluster.Client — with a fifth node joining at a third
// of the trace, one node killed outright at the half, and another drained
// gracefully at two thirds — must match the sequential engine bit for bit
// under every GC policy.
func TestClusterOracle(t *testing.T) {
	conformance.RunClusterOracle(t, func(t *testing.T, prop string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) conformance.ClusterHarness {
		nodes, dial := startNodes(t, "n1", "n2", "n3", "n4", "n5")
		c, err := cluster.Open(cluster.Options{
			Prop:      prop,
			GC:        gc,
			Creation:  monitor.CreateEnable,
			Nodes:     []string{"n1", "n2", "n3", "n4"},
			Dial:      dial,
			OnVerdict: onVerdict,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conformance.ClusterHarness{
			RT:    c,
			Join:  func() error { return c.AddNode("n5") },
			Kill:  func() error { nodes["n2"].kill(); return nil },
			Leave: func() error { return c.RemoveNode("n1") },
		}
	})
}

// TestClusterAvoidanceOracle replays the avrora trace through a stable
// 4-node cluster under every GC policy × avoidance mode (the mode travels
// in every slot session's Hello) and holds verdicts and settled counters
// against the unguarded sequential reference.
func TestClusterAvoidanceOracle(t *testing.T) {
	conformance.RunAvoidanceOracle(t, func(t *testing.T, prop string, gc monitor.GCPolicy, avoid monitor.AvoidMode, onVerdict func(monitor.Verdict)) monitor.Runtime {
		_, dial := startNodes(t, "n1", "n2", "n3", "n4")
		c, err := cluster.Open(cluster.Options{
			Prop:      prop,
			GC:        gc,
			Creation:  monitor.CreateEnable,
			Avoid:     avoid,
			Nodes:     []string{"n1", "n2", "n3", "n4"},
			Dial:      dial,
			OnVerdict: onVerdict,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// TestRouterOracle runs the same bar through the full deployment shape: an
// ordinary remote.Client speaking the plain wire protocol to a Router,
// which fans out to the nodes. The fifth node is down at session open
// (exercising the handshake's probe-and-retry) and joins when its gate
// lifts and the health probe re-admits it; the kill exercises lazy
// eviction and crash handoff under a live upstream session.
func TestRouterOracle(t *testing.T) {
	conformance.RunClusterOracle(t, func(t *testing.T, prop string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) conformance.ClusterHarness {
		nodes, dial := startNodes(t, "n1", "n2", "n3", "n4", "n5")
		nodes["n5"].up.Store(false) // running, but unreachable until Join
		rtr, err := cluster.NewRouter(cluster.RouterOptions{
			Nodes: []string{"n1", "n2", "n3", "n4", "n5"},
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
		cl, err := remote.Dial(l.Addr().String(), remote.Options{
			Prop:      prop,
			GC:        gc,
			Creation:  monitor.CreateEnable,
			OnVerdict: onVerdict,
		})
		if err != nil {
			t.Fatal(err)
		}
		return conformance.ClusterHarness{
			RT:   cl,
			Join: func() error { nodes["n5"].up.Store(true); return nil },
			Kill: func() error { nodes["n2"].kill(); return nil },
		}
	})
}

// stubNode speaks just enough of the wire protocol to hold slot sessions:
// it grants a one-event credit window at handshake and never replenishes
// it until the test says so — the refusing node of the all-or-nothing
// broadcast discipline. It keeps the Hello each slot session opened with,
// and reports stubAvoided suppressed creations in every counter snapshot:
// what a router must carry down and back up.
type stubNode struct {
	lst    net.Listener
	ack    wire.HelloAck
	mu     sync.Mutex
	conns  []*stubConn
	hellos []wire.Hello
	events atomic.Uint64
}

const stubAvoided = 7

type stubConn struct {
	mu sync.Mutex
	w  *wire.Writer
}

func (sc *stubConn) send(f func(*wire.Writer) error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := f(sc.w); err == nil {
		sc.w.Flush()
	}
}

// helloAck is the HelloAck a node compiling spec answers with.
func helloAck(spec *monitor.Spec, window uint64) wire.HelloAck {
	ack := wire.HelloAck{Window: window, SpecName: spec.Name, Params: spec.Params}
	for _, ev := range spec.Events {
		ack.Events = append(ack.Events, wire.EventDef{Name: ev.Name, Params: uint64(ev.Params)})
	}
	return ack
}

func startStub(t *testing.T, spec *monitor.Spec) *stubNode {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubNode{lst: l, ack: helloAck(spec, 1)}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	t.Cleanup(func() { l.Close() })
	return s
}

func (s *stubNode) serve(conn net.Conn) {
	defer conn.Close()
	r := wire.NewReader(conn)
	sc := &stubConn{w: wire.NewWriter(conn)}
	var msg wire.Msg
	if err := r.Next(&msg); err != nil || msg.Type != wire.TNodeHello {
		return
	}
	if err := r.Next(&msg); err != nil || msg.Type != wire.THello {
		return
	}
	s.mu.Lock()
	s.conns = append(s.conns, sc)
	s.hellos = append(s.hellos, msg.Hello)
	s.mu.Unlock()
	sc.send(func(w *wire.Writer) error { return w.WriteHelloAck(s.ack) })
	for {
		if err := r.Next(&msg); err != nil {
			return
		}
		switch msg.Type {
		case wire.TEvent:
			s.events.Add(1)
		case wire.TFree, wire.THandoffBegin:
		case wire.TBarrier:
			tok := msg.Sync.Token
			sc.send(func(w *wire.Writer) error { return w.WriteSync(wire.TBarrierAck, tok) })
		case wire.TFlush:
			tok := msg.Sync.Token
			sc.send(func(w *wire.Writer) error { return w.WriteSync(wire.TFlushAck, tok) })
		case wire.TStatsReq:
			tok := msg.Sync.Token
			sc.send(func(w *wire.Writer) error { return w.WriteStats(wire.Stats{Token: tok, Avoided: stubAvoided}) })
		case wire.THandoffEnd:
			tok := msg.Sync.Token
			sc.send(func(w *wire.Writer) error { return w.WriteHandoffAck(wire.Stats{Token: tok}) })
		case wire.TBye:
			sc.send(func(w *wire.Writer) error { return w.WriteByeAck(wire.ByeAck{Stats: wire.Stats{Avoided: stubAvoided}}) })
			return
		}
	}
}

// slotHellos returns the Hello of every slot session opened so far.
func (s *stubNode) slotHellos() []wire.Hello {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Hello(nil), s.hellos...)
}

// grant replenishes n credits on every stub session.
func (s *stubNode) grant(n uint64) {
	s.mu.Lock()
	conns := append([]*stubConn(nil), s.conns...)
	s.mu.Unlock()
	for _, sc := range conns {
		sc.send(func(w *wire.Writer) error { return w.WriteCredit(n) })
	}
}

type testRef uint64

func (r testRef) ID() uint64    { return uint64(r) }
func (r testRef) Alive() bool   { return true }
func (r testRef) Label() string { return fmt.Sprintf("t%d", uint64(r)) }

func sessionEventSum(srv *server.Server) uint64 {
	var sum uint64
	for _, s := range srv.Statusz().Sessions {
		sum += s.Events
	}
	return sum
}

// TestBroadcastAllOrNothing pins the cluster credit discipline: a
// broadcast event is written to no slot until every slot has granted a
// credit, so one refusing node (the stub, with its one-credit window)
// withholds the event from the healthy node too — partial prefixes never
// happen, and the upstream producer stalls end-to-end.
func TestBroadcastAllOrNothing(t *testing.T) {
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
	if bsym < 0 {
		t.Fatal("UnsafeIter has no broadcast event; the test needs one")
	}

	realLst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	go srv.Serve(realLst)
	t.Cleanup(func() { srv.Shutdown(time.Second) })
	stub := startStub(t, spec)
	dial := func(addr string) (net.Conn, error) {
		switch addr {
		case "real":
			return net.Dial("tcp", realLst.Addr().String())
		case "stub":
			return net.Dial("tcp", stub.lst.Addr().String())
		}
		return nil, fmt.Errorf("unknown node %q", addr)
	}

	// Find a seed under which both nodes own slots (the rendezvous spread
	// over two nodes leaves one empty only with vanishing probability, but
	// the test must not depend on luck).
	var c *cluster.Client
	for seed := uint64(0); ; seed++ {
		if seed == 16 {
			t.Fatal("no seed spread slots over both nodes")
		}
		cc, err := cluster.Open(cluster.Options{
			Prop:     "UnsafeIter",
			GC:       monitor.GCNone,
			Creation: monitor.CreateEnable,
			Nodes:    []string{"real", "stub"},
			Seed:     seed,
			Dial:     dial,
		})
		if err != nil {
			t.Fatal(err)
		}
		spread := true
		for _, ns := range cc.Nodes() {
			if ns.Slots == 0 {
				spread = false
			}
		}
		if spread {
			c = cc
			break
		}
		cc.Close()
	}
	defer c.Close()
	var realSlots, stubSlots uint64
	for _, ns := range c.Nodes() {
		switch ns.Addr {
		case "real":
			realSlots = uint64(ns.Slots)
		case "stub":
			stubSlots = uint64(ns.Slots)
		}
	}

	// First broadcast: every stub slot spends its only credit; the event
	// reaches every slot on both nodes.
	monitor.Emit(c, bsym, testRef(1))
	c.Barrier()
	if got := sessionEventSum(srv); got != realSlots {
		t.Fatalf("after first broadcast the real node saw %d events, want %d (one per slot)", got, realSlots)
	}
	if got := stub.events.Load(); got != stubSlots {
		t.Fatalf("after first broadcast the stub saw %d events, want %d", got, stubSlots)
	}

	// Second broadcast: the stub's windows are empty, so the whole
	// broadcast must stall — including the copies for the healthy node.
	done := make(chan struct{})
	go func() {
		monitor.Emit(c, bsym, testRef(2))
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("broadcast completed while a slot refused credit")
	case <-time.After(300 * time.Millisecond):
	}
	if got := sessionEventSum(srv); got != realSlots {
		t.Fatalf("refused broadcast leaked to the real node: saw %d events, want still %d", got, realSlots)
	}

	// Replenish the stub windows: the stalled broadcast completes and the
	// event lands everywhere exactly once.
	stub.grant(64)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast still stalled after credit was granted")
	}
	c.Barrier()
	if got := sessionEventSum(srv); got != 2*realSlots {
		t.Fatalf("after the grant the real node saw %d events, want %d", got, 2*realSlots)
	}
	if got := stub.events.Load(); got != 2*stubSlots {
		t.Fatalf("after the grant the stub saw %d events, want %d", got, 2*stubSlots)
	}
}

// TestRouterCarriesAvoidance: the creation-avoidance mode is part of the
// session like the GC policy is, so a router must hand it to every slot
// session and merge the nodes' Avoided counters back — an AvoidEnforce
// session through a router may not silently run unguarded and report zero —
// and it must refuse an out-of-range mode byte with the Error frame a node
// refuses it with.
func TestRouterCarriesAvoidance(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	stub := startStub(t, spec)
	rtr, err := cluster.NewRouter(cluster.RouterOptions{
		Nodes: []string{"stub"},
		Dial:  func(string) (net.Conn, error) { return net.Dial("tcp", stub.lst.Addr().String()) },
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

	cl, err := remote.Dial(l.Addr().String(), remote.Options{
		Prop:     "UnsafeIter",
		GC:       monitor.GCNone,
		Creation: monitor.CreateEnable,
		Avoid:    monitor.AvoidEnforce,
	})
	if err != nil {
		t.Fatal(err)
	}
	hellos := stub.slotHellos()
	if len(hellos) < 2 {
		t.Fatalf("%d slot sessions opened, want one per slot", len(hellos))
	}
	for i, h := range hellos {
		if monitor.AvoidMode(h.Avoid) != monitor.AvoidEnforce {
			t.Errorf("slot session %d opened with Avoid = %d, want AvoidEnforce", i, h.Avoid)
		}
	}
	want := uint64(stubAvoided * len(hellos))
	if got := cl.Stats().Avoided; got != want {
		t.Errorf("Stats().Avoided = %d, want %d (%d from each of %d slots)", got, want, stubAvoided, len(hellos))
	}
	cl.Close()
	if got := cl.Stats().Avoided; got != want {
		t.Errorf("after Close Stats().Avoided = %d, want %d", got, want)
	}

	// The same bad modes, the same refusal, whoever answers: an undefined
	// mode byte, and enforced avoidance under full creation with a
	// collecting GC policy (legal modes, illegal together).
	_, dial := startNodes(t, "node")
	refusal := func(h wire.Hello, open func() (net.Conn, error)) string {
		conn, err := open()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		w := wire.NewWriter(conn)
		w.WriteHello(h)
		w.Flush()
		var msg wire.Msg
		if err := wire.NewReader(conn).Next(&msg); err != nil || msg.Type != wire.TError {
			t.Fatalf("Hello %+v answered with type %d (%v), want an Error frame", h, msg.Type, err)
		}
		return msg.Error.Msg
	}
	for _, tc := range []struct {
		gc, creation, avoid byte
		want                string
	}{
		{byte(monitor.GCNone), byte(monitor.CreateEnable), 99, "avoidance"},
		{byte(monitor.GCCoenable), byte(monitor.CreateFull), byte(monitor.AvoidEnforce), "requires the none GC policy"},
	} {
		h := wire.Hello{Version: wire.Version, SpecKind: wire.SpecProp, Spec: "UnsafeIter", GC: tc.gc, Creation: tc.creation, Avoid: tc.avoid}
		fromNode := refusal(h, func() (net.Conn, error) { return dial("node") })
		fromRouter := refusal(h, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) })
		if fromRouter != fromNode || !strings.Contains(fromNode, tc.want) {
			t.Errorf("GC=%d Creation=%d Avoid=%d refused with %q by the router and %q by a node, want the same error containing %q",
				tc.gc, tc.creation, tc.avoid, fromRouter, fromNode, tc.want)
		}
	}
}

// TestOpenValidation pins the Open-time error surface.
func TestOpenValidation(t *testing.T) {
	_, dial := startNodes(t, "n1")
	cases := []struct {
		name string
		opts cluster.Options
	}{
		{"no nodes", cluster.Options{Prop: "UnsafeIter", Creation: monitor.CreateEnable, Dial: dial}},
		{"duplicate nodes", cluster.Options{Prop: "UnsafeIter", Creation: monitor.CreateEnable, Nodes: []string{"n1", "n1"}, Dial: dial}},
		{"both spec forms", cluster.Options{Prop: "UnsafeIter", SpecSource: "x", Creation: monitor.CreateEnable, Nodes: []string{"n1"}, Dial: dial}},
		{"neither spec form", cluster.Options{Creation: monitor.CreateEnable, Nodes: []string{"n1"}, Dial: dial}},
		{"full creation", cluster.Options{Prop: "UnsafeIter", Creation: monitor.CreateFull, Nodes: []string{"n1"}, Dial: dial}},
		{"unknown prop", cluster.Options{Prop: "NoSuchProp", Creation: monitor.CreateEnable, Nodes: []string{"n1"}, Dial: dial}},
	}
	for _, tc := range cases {
		if c, err := cluster.Open(tc.opts); err == nil {
			c.Close()
			t.Errorf("%s: Open accepted", tc.name)
		}
	}

	// The fanout is a monitor.Options.Check boundary over its slots: full
	// creation cannot be split across them.
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	full := monitor.Options{Creation: monitor.CreateFull}
	want := full.Check(spec, 4)
	_, err = cluster.Open(cluster.Options{Prop: "UnsafeIter", Creation: full.Creation, Nodes: []string{"n1"}, Slots: 4, Dial: dial})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("full creation over 4 slots: Open = %v, want Check's %v", err, want)
	}
}

// TestMembershipErrors pins the membership error surface on a live client.
func TestMembershipErrors(t *testing.T) {
	_, dial := startNodes(t, "n1")
	c, err := cluster.Open(cluster.Options{
		Prop:     "UnsafeIter",
		GC:       monitor.GCCoenable,
		Creation: monitor.CreateEnable,
		Nodes:    []string{"n1"},
		Dial:     dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddNode("n1"); err == nil {
		t.Error("AddNode accepted an existing member")
	}
	if err := c.RemoveNode("ghost"); err == nil {
		t.Error("RemoveNode accepted a non-member")
	}
	if err := c.RemoveNode("n1"); err == nil {
		t.Error("RemoveNode removed the last node")
	}
	if len(c.Nodes()) != 1 {
		t.Errorf("membership drifted: %v", c.Nodes())
	}
}
