package remote_test

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"rvgo/internal/cluster"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/remote"
	"rvgo/internal/server"
	"rvgo/internal/shard"
)

// tableBackend is one client shape whose ref table the release tests hold.
// open builds a client of prop (or of the .rv source) under gc, wired to
// onVerdict, and returns its Front, the client, and a lever that moves part
// of its state to other engines (a cluster slot move; nil when there is
// none). The test closes the client.
type tableBackend struct {
	name string
	open func(t *testing.T, prop, source string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) (*remote.Front, monitor.Runtime, func() error)
}

// clientTableBackends builds the client shapes: a remote session on a
// server backend of each shard count, a cluster client over two nodes, and
// a remote session through a router over two nodes (the slots' releases
// passed on as Release frames). slots sizes both slot rings (0: the
// default, 16).
func clientTableBackends(shards []int, slots int) []tableBackend {
	var out []tableBackend
	for _, n := range shards {
		out = append(out, tableBackend{fmt.Sprintf("remote/shards=%d", n), func(t *testing.T, prop, source string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) (*remote.Front, monitor.Runtime, func() error) {
			c, err := remote.Dial(startServer(t, server.Options{MaxShards: n}), remote.Options{
				Prop: prop, SpecSource: source, GC: gc, Shards: n, OnVerdict: onVerdict,
			})
			if err != nil {
				t.Fatal(err)
			}
			return c.Front, c, nil
		}})
	}
	out = append(out, tableBackend{"cluster/nodes=2", func(t *testing.T, prop, source string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) (*remote.Front, monitor.Runtime, func() error) {
		var mu sync.Mutex
		moved := 0
		c, err := cluster.Open(cluster.Options{
			Prop: prop, SpecSource: source, GC: gc,
			Nodes:     []string{startServer(t, server.Options{}), startServer(t, server.Options{})},
			Slots:     slots,
			OnVerdict: onVerdict,
			Logf: func(format string, args ...any) {
				if strings.Contains(fmt.Sprintf(format, args...), "moved to") {
					mu.Lock()
					moved++
					mu.Unlock()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		third := startServer(t, server.Options{})
		move := func() error {
			if err := c.AddNode(third); err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if moved == 0 {
				return fmt.Errorf("admitting a third node moved no slot")
			}
			return nil
		}
		return c.Front, c, move
	}})
	out = append(out, tableBackend{"router/nodes=2", func(t *testing.T, prop, source string, gc monitor.GCPolicy, onVerdict func(monitor.Verdict)) (*remote.Front, monitor.Runtime, func() error) {
		rtr, err := cluster.NewRouter(cluster.RouterOptions{
			Nodes: []string{startServer(t, server.Options{}), startServer(t, server.Options{})},
			Slots: slots,
		})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go rtr.Serve(l)
		t.Cleanup(func() { rtr.Shutdown(5 * time.Second) })
		c, err := remote.Dial(l.Addr().String(), remote.Options{
			Prop: prop, SpecSource: source, GC: gc, OnVerdict: onVerdict,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.Front, c, nil
	}})
	return out
}

// TestClientTableHoldsLiveObjects: a client holds a ref only while some
// engine behind it still records the object — the client-side mirror of
// the server's session-table test — on a sequential and a two-shard server
// backend, through a two-node cluster and through a router; and a closed
// client holds none.
//
// coenable: 100 000 IDs churn through the session with at most 64 alive at
// once, each mentioned by an update and later freed, and every seventh
// freed without ever being mentioned. Mid-stream, after a Barrier, the
// table holds the live objects plus the dead ones the engines' sweeps have
// yet to drop; after Flush it holds exactly the live ones. A double free
// drains like a single one.
//
// none: a monitor outlives its objects while any of them lives, so every
// object a monitor binds stays in the table, dead or not, until the
// monitor goes.
func TestClientTableHoldsLiveObjects(t *testing.T) {
	for _, b := range clientTableBackends([]int{1, 2}, 0) {
		t.Run(b.name, func(t *testing.T) {
			open := func(t *testing.T, gc monitor.GCPolicy) (monitor.Runtime, func() int) {
				front, rt, _ := b.open(t, "UnsafeIter", "", gc, nil)
				t.Cleanup(func() {
					rt.Close()
					if n := front.HeldRefs(); n != 0 {
						t.Errorf("a closed client holds %d refs, want none", n)
					}
				})
				return rt, front.HeldRefs
			}
			t.Run("coenable", func(t *testing.T) {
				rt, held := open(t, monitor.GCCoenable)
				update := symbol(t, rt, "update")
				const n, window = 100_000, 64
				h := heap.New()
				var live []*heap.Object
				free := func(o *heap.Object) {
					rt.Free(o)
					h.Free(o)
				}
				peak := 0
				for id := 1; id <= n; id++ {
					o := h.Alloc("c")
					if id%7 == 0 {
						free(o)
						continue
					}
					if len(live) == window {
						free(live[0])
						live = live[1:]
					}
					monitor.Emit(rt, update, o)
					live = append(live, o)
					if id%5000 == 0 {
						rt.Barrier()
						peak = max(peak, held())
					}
				}
				// Without releases the table would end up holding every
				// object ever sent, 85 715. With them it holds the live
				// window plus the dead records the engines' sweeps have yet
				// to drop: at most 1 566 sequential, 2 646 on two shards and
				// 8 189 over 16 cluster slots, each sweeping on its own pace.
				const bound = 12_000
				if peak > bound {
					t.Errorf("mid-stream the table held up to %d refs, want ≤ %d", peak, bound)
				}
				rt.Flush()
				if got := held(); got != len(live) {
					t.Fatalf("after Flush the table holds %d refs, want the %d live objects'", got, len(live))
				}
				victim := live[0]
				rt.Free(victim)
				rt.Free(victim)
				h.Free(victim)
				rt.Flush()
				if got := held(); got != len(live)-1 {
					t.Errorf("after a double free and Flush the table holds %d refs, want %d", got, len(live)-1)
				}
				if err := errOf(rt); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("none", func(t *testing.T) {
				rt, held := open(t, monitor.GCNone)
				create := symbol(t, rt, "create")
				const n = 1500
				h := heap.New()
				cs := make([]*heap.Object, n)
				for k := range cs {
					c, i := h.Alloc("c"), h.Alloc("i")
					monitor.Emit(rt, create, c, i)
					rt.Free(i)
					h.Free(i)
					cs[k] = c
				}
				rt.Flush()
				if got := held(); got != 2*n {
					t.Errorf("under GCNone the table holds %d refs after Flush, want all %d objects the %d monitors over a live collection bind", got, 2*n, n)
				}
				for _, c := range cs {
					rt.Free(c)
					h.Free(c)
				}
				rt.Flush()
				if got := held(); got != 0 {
					t.Errorf("with every object dead the table holds %d refs after Flush, want none", got)
				}
				if err := errOf(rt); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// lateSpec matches as soon as fire follows bind: the monitor ⟨a,b⟩ needs
// nothing more of b once bound, so b may die before the verdict.
const lateSpec = `Late(A a, B b) {
    event bind(a, b)
    event fire(a)
    ere : bind fire
    @match { }
}`

// TestLateVerdictIdentity: a verdict about an object freed before the
// event that produced it carries the caller's own ref, not a stand-in — on
// a sequential and a four-shard server backend, through a cluster whose
// slots move between the frees and the verdicts, and through a router. For
// 64 pairs, bind(a, b), then b is freed and killed, then (after the move,
// if any) fire(a): every match binds b to the very ref the caller sent.
func TestLateVerdictIdentity(t *testing.T) {
	for _, b := range clientTableBackends([]int{1, 4}, 0) {
		for _, gc := range []monitor.GCPolicy{monitor.GCCoenable, monitor.GCNone} {
			t.Run(b.name+"/"+gc.String(), func(t *testing.T) {
				const pairs = 64
				got := map[uint64]heap.Ref{} // a's ID → the b the verdict bound
				_, rt, move := b.open(t, "", lateSpec, gc, func(v monitor.Verdict) {
					got[v.Inst.Value(0).ID()] = v.Inst.Value(1)
				})
				defer rt.Close()
				bind, fire := symbol(t, rt, "bind"), symbol(t, rt, "fire")
				h := heap.New()
				as, bs := make([]*heap.Object, pairs), make([]*heap.Object, pairs)
				for k := range as {
					as[k], bs[k] = h.Alloc(fmt.Sprintf("a%d", k)), h.Alloc(fmt.Sprintf("b%d", k))
					monitor.Emit(rt, bind, as[k], bs[k])
					rt.Free(bs[k])
					h.Free(bs[k])
				}
				if move != nil {
					if err := move(); err != nil {
						t.Fatal(err)
					}
				}
				for _, a := range as {
					monitor.Emit(rt, fire, a)
				}
				rt.Flush()
				if len(got) != pairs {
					t.Fatalf("%d of %d pairs matched", len(got), pairs)
				}
				for k, a := range as {
					if b := got[a.ID()]; b != heap.Ref(bs[k]) {
						t.Errorf("the match of %s bound b to %v (%T), want the caller's %s", a.Label(), b, b, bs[k].Label())
					}
				}
				if err := errOf(rt); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestWideSessionKeepsRefs: no backend has more lanes than a client
// tracks. A server refuses a session of 65 shards; a cluster's or a
// router's ring of 65 slots is capped at shard.MaxLanes, and its slots
// release the objects like any lane: late verdicts still carry the
// caller's refs, and after Flush the table holds none.
func TestWideSessionKeepsRefs(t *testing.T) {
	t.Run("remote/shards=65", func(t *testing.T) {
		_, err := remote.Dial(startServer(t, server.Options{MaxShards: 65}), remote.Options{
			SpecSource: lateSpec, GC: monitor.GCCoenable, Shards: 65,
		})
		if err == nil || !strings.Contains(err.Error(), "out of range 1..64") {
			t.Fatalf("a session of 65 shards opened with %v, want a refusal naming the range 1..64", err)
		}
	})
	for _, b := range clientTableBackends(nil, 65) {
		t.Run(b.name, func(t *testing.T) {
			matches := 0
			front, rt, _ := b.open(t, "", lateSpec, monitor.GCCoenable, func(v monitor.Verdict) {
				if _, ok := v.Inst.Value(1).(*heap.Object); !ok {
					t.Errorf("a late verdict bound b to %v (%T), want the caller's ref", v.Inst.Value(1), v.Inst.Value(1))
				}
				matches++
			})
			if c, ok := rt.(*cluster.Client); ok {
				slots := 0
				for _, n := range c.Nodes() {
					slots += n.Slots
				}
				if slots != shard.MaxLanes {
					t.Errorf("a ring of 65 slots opened %d, want %d", slots, shard.MaxLanes)
				}
			}
			bind, fire := symbol(t, rt, "bind"), symbol(t, rt, "fire")
			const pairs = 200
			h := heap.New()
			for range pairs {
				a, b := h.Alloc("a"), h.Alloc("b")
				monitor.Emit(rt, bind, a, b)
				rt.Free(b)
				h.Free(b)
				monitor.Emit(rt, fire, a)
				rt.Free(a)
				h.Free(a)
			}
			rt.Flush()
			if got := front.HeldRefs(); got != 0 {
				t.Errorf("after Flush the table holds %d refs, want none", got)
			}
			if matches != pairs {
				t.Errorf("%d of %d pairs matched", matches, pairs)
			}
			if err := errOf(rt); err != nil {
				t.Fatal(err)
			}
			rt.Close()
			if got := front.HeldRefs(); got != 0 {
				t.Errorf("a closed client holds %d refs, want none", got)
			}
		})
	}
}

// TestFrontLanes: the Front's lane rule on its own. An entry goes when the
// last lane that held the object at its first Free releases it; a repeated
// release, a release of an object never sent and a second Free change
// nothing; and a session of 64 lanes, the most there are, releases like any
// other.
func TestFrontLanes(t *testing.T) {
	f, err := remote.NewFront("UnsafeIter", "", func(monitor.Verdict) {})
	if err != nil {
		t.Fatal(err)
	}
	spec := f.Spec()
	h := heap.New()
	send := func() (uint64, uint64) {
		c, i := h.Alloc("c"), h.Alloc("i")
		f.EventIDs(nil, 0, param.Of(spec.Events[0].Params, c, i))
		return c.ID(), i.ID()
	}
	want := func(n int, what string) {
		t.Helper()
		if got := f.HeldRefs(); got != n {
			t.Fatalf("%s: the table holds %d refs, want %d", what, got, n)
		}
	}
	f.SetLanes(3)
	c, i := send()
	f.Release(0, []uint64{c, i}) // not freed yet: no lane holds a mark
	want(2, "a release before the Free")
	f.Arm(c)
	f.Release(0, []uint64{c, c + 1000})
	f.Release(0, []uint64{c})
	f.Arm(c) // a second Free
	f.Release(1, []uint64{c})
	want(2, "two of three lanes released")
	f.Release(2, []uint64{c})
	want(1, "every lane released")
	f.Arm(c) // a Free after the entry went
	want(1, "a Free after the release")

	f.SetLanes(64)
	c2, _ := send()
	f.Arm(c2)
	for lane := range 63 {
		f.Release(lane, []uint64{c2})
	}
	want(3, "63 of a session's 64 lanes released")
	f.Release(63, []uint64{c2})
	want(2, "all 64 lanes released")
}

// TestClosedClientPinsNothing: a closed client, kept for its Stats, leaves
// every object it sent collectable — the table goes once the ByeAck is in.
func TestClosedClientPinsNothing(t *testing.T) {
	for _, b := range clientTableBackends([]int{1}, 0) {
		t.Run(b.name, func(t *testing.T) {
			front, rt, _ := b.open(t, "UnsafeIter", "", monitor.GCCoenable, nil)
			spec := rt.Spec()
			var wp weak.Pointer[heap.Object]
			func() {
				h := heap.New()
				c, i := h.Alloc("c"), h.Alloc("i")
				wp = weak.Make(c)
				monitor.Emit(rt, 0, c, i)
				rt.Barrier()
			}()
			rt.Close()
			runtime.GC()
			runtime.GC()
			if wp.Value() != nil {
				t.Errorf("an object sent to the %s client is still reachable after Close (the table holds %d refs)", spec.Name, front.HeldRefs())
			}
			if st := rt.Stats(); st.Events != 1 {
				t.Errorf("the closed client's Stats report %d events, want 1", st.Events)
			}
			runtime.KeepAlive(rt)
		})
	}
}

// symbol resolves an event of the runtime's spec.
func symbol(t *testing.T, rt monitor.Runtime, name string) int {
	t.Helper()
	sym, ok := rt.Spec().Symbol(name)
	if !ok {
		t.Fatalf("%s has no event %q", rt.Spec().Name, name)
	}
	return sym
}

// errOf is the sticky session error of a client that has one.
func errOf(rt monitor.Runtime) error {
	if e, ok := rt.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}
