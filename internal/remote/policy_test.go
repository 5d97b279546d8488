package remote_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/remote"
	"rvgo/internal/server"
	"rvgo/internal/wire"
)

// serveLocal is startServer for the tests that also read the server's
// registry.
func serveLocal(t *testing.T) (*server.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Options{})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return srv, l.Addr().String()
}

// TestFreesRideTheBlock: with no sync operation, events and frees leave in
// write blocks — a death costs no write of its own.
func TestFreesRideTheBlock(t *testing.T) {
	_, addr := serveLocal(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := &conformance.CountingConn{Conn: raw}
	cl, err := remote.NewSession(conn, remote.Options{
		Prop: "UnsafeIter", GC: monitor.GCCoenable,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn.Reset()

	// 1000 frees among 2000 events: under the default 4096-event window, so
	// no credit stall forces a flush either.
	const iters = 1000
	h := heap.New()
	start := time.Now()
	for k := 0; k < iters; k++ {
		c, it := h.Alloc("c"), h.Alloc("i")
		monitor.Emit(cl, 0, c, it)
		monitor.Emit(cl, 2, it)
		cl.Free(it)
	}
	elapsed := time.Since(start)
	time.Sleep(20 * conformance.WriteLinger) // the tail leaves on the linger deadline
	writes, bytes := conn.Counts()
	if bytes == 0 {
		t.Fatal("nothing was written: the linger deadline never fired")
	}
	if budget := conformance.WriteBudget(bytes, elapsed); writes > budget {
		t.Errorf("%d frees + %d events (%d bytes, %v) took %d writes, want <= %d",
			iters, 2*iters, bytes, elapsed, writes, budget)
	}
}

// TestIdleProducerTimeliness: a producer that goes quiet still gets its
// buffered records monitored — the verdict fires and the death is applied
// within the linger bound, with no further call from the producer.
func TestIdleProducerTimeliness(t *testing.T) {
	for _, withFree := range []bool{false, true} {
		name := "events only"
		if withFree {
			name = "events and a free"
		}
		t.Run(name, func(t *testing.T) {
			srv, addr := serveLocal(t)
			verdict := make(chan struct{}, 1)
			cl, err := remote.Dial(addr, remote.Options{
				Prop: "HasNext", GC: monitor.GCCoenable,
				OnVerdict: func(monitor.Verdict) { verdict <- struct{}{} },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			it := heap.New().Alloc("i")
			for _, ev := range []string{"hasnexttrue", "next", "next"} {
				if err := monitor.EmitNamed(cl, ev, it); err != nil {
					t.Fatal(err)
				}
			}
			if withFree {
				cl.Free(it)
			}
			deadline := time.After(50 * time.Millisecond)
			select {
			case <-verdict:
			case <-deadline:
				t.Fatal("no verdict within 50ms of the last call")
			}
			for withFree && conformance.CounterSum(srv.Metrics(), "rv_server_frees_total") == 0 {
				select {
				case <-deadline:
					t.Fatal("the free was not applied within 50ms of the last call")
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
}

// TestLargeFreeRemote: a death naming more objects than one free frame can
// carry crosses as consecutive frames at its position, and the session
// survives it and settles like the sequential engine.
func TestLargeFreeRemote(t *testing.T) {
	conformance.Diff(t, conformance.LargeFree(t), []conformance.Backend{remoteBackend(startServer(t, server.Options{}), 1)},
		[]conformance.Mode{{GC: monitor.GCCoenable}})
}

// TestDispatchNoAlloc guards the seam between the ref-level Front and the
// client's sink: Dispatch gathers the event's IDs into a stack-resident
// vector and hands it to the Producer by a concrete call. Handing it over
// through an interface or a type-parameter method instead makes the vector
// escape — one allocation per event — so with the objects already in the
// ref table and credit in hand, an event must allocate nothing. Nor may a
// fresh pair's whole stay in the table: its event, its two frees and the
// release that ends its entries (the sink never answers, so the test
// hands the Front the release the server would send).
func TestDispatchNoAlloc(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	var greeting bytes.Buffer
	ack := wire.HelloAck{Window: 1 << 40, Lanes: 1, SpecName: spec.Name, Params: spec.Params}
	for _, ev := range spec.Events {
		ack.Events = append(ack.Events, wire.EventDef{Name: ev.Name, Params: uint64(ev.Params)})
	}
	w := wire.NewWriter(&greeting)
	w.WriteHelloAck(ack)
	w.Flush()
	conn := conformance.NewSinkConn(greeting.Bytes())
	c, err := remote.NewSession(conn, remote.Options{
		Prop: "UnsafeIter", GC: monitor.GCCoenable,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer conn.Close() // first: the sink will never answer Close's Bye
	h := heap.New()
	theta := param.Of(spec.Events[0].Params, h.Alloc("c"), h.Alloc("i"))
	c.Dispatch(0, theta) // enters both objects into the ref table
	if n := testing.AllocsPerRun(2000, func() { c.Dispatch(0, theta) }); n != 0 {
		t.Errorf("Dispatch allocates %v objects per event, want 0", n)
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
		c.Release(0, ids[:])
	}
	if n := testing.AllocsPerRun(runs, generation); n != 0 {
		t.Errorf("a fresh pair's event, frees and release allocate %v objects, want 0", n)
	}
	if n := c.HeldRefs(); n != 2 {
		t.Errorf("the table holds %d refs after the released generations, want the first pair's 2", n)
	}
}

// TestDeliverVerdictNoAlloc: turning a verdict's IDs back into the caller's
// refs allocates nothing when the table holds them.
func TestDeliverVerdictNoAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	delivered := 0
	f, err := remote.NewFront("UnsafeIter", "", func(monitor.Verdict) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	spec := f.Spec()
	h := heap.New()
	c, i := h.Alloc("c"), h.Alloc("i")
	ids := f.EventIDs(nil, 0, param.Of(spec.Events[0].Params, c, i))
	v := wire.Verdict{Sym: 2, Cat: "match", Mask: uint64(spec.Events[0].Params), IDs: ids}
	if n := testing.AllocsPerRun(1000, func() { f.DeliverVerdict(v) }); n != 0 {
		t.Errorf("DeliverVerdict allocates %v objects per verdict, want 0", n)
	}
	if delivered == 0 {
		t.Fatal("no verdict delivered")
	}
}
