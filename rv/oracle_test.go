package rv_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"rvgo"
	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/rv"
	"rvgo/spec"
)

// liveObj is a real heap-allocated parameter object for the rv replay.
type liveObj struct {
	ord int
	pad [4]int64
}

//go:noinline
func newLiveObj(ord int) *liveObj { return &liveObj{ord: ord} }

// live is the rv frontend under the harness: each object the harness names
// stands for a real Go object, registered in ordinal order (so the
// registry's IDs are the harness's), attached by event name, and dropped
// at its death point, after which a pinned Go GC cycle delivers the death
// — the paper's claim is that the host GC is a faithful death signal.
type live struct {
	*rvgo.Monitor
	t    testing.TB
	s    *rv.Session
	objs []*liveObj // by ordinal; nil once dropped
}

// obj returns ordinal o's object, registering every ordinal up to it.
func (l *live) obj(o int) *liveObj {
	for len(l.objs) <= o {
		ord := len(l.objs)
		v := newLiveObj(ord)
		if _, err := l.s.Registry().Register(v, fmt.Sprintf("o%d", ord)); err != nil {
			l.t.Fatal(err)
		}
		l.objs = append(l.objs, v)
	}
	return l.objs[o]
}

func (l *live) Dispatch(sym int, theta param.Instance) {
	var vals []any
	for m := theta.Mask(); !m.Empty(); m = m.Rest() {
		vals = append(vals, l.obj(int(theta.Value(m.First()).ID()-1)))
	}
	if err := l.s.Attach(l.Spec().Events[sym].Name, vals...); err != nil {
		l.t.Fatal(err)
	}
}

func (l *live) Free(ref heap.Ref) {
	o := int(ref.ID() - 1)
	l.obj(o)
	// Drop the only strong reference, pin a GC point, deliver.
	l.objs[o] = nil
	if delivered, ok := l.s.Collect(1, 20*time.Second); !ok || delivered != 1 {
		l.t.Fatalf("death of o%d: delivered %d (settled=%v); registry %+v", o, delivered, ok, l.s.Registry().Stats())
	}
}

func (l *live) Close() { l.s.Close() }

// liveBackend is the rv frontend over a façade monitor: the sequential
// engine, shards > 0 shards, or a session of max(shards, 1) lanes on the
// server at remote.
func liveBackend(name string, lanes, shards int, remote string) conformance.Backend {
	return conformance.Backend{Name: name, Lanes: lanes, Lazy: shards == 0 && remote == "", Open: func(t *testing.T, sp *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
		prop, err := spec.Builtin(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		opts := []rvgo.Option{rvgo.WithGC(m.GC), rvgo.WithVerdictHandler(onVerdict)}
		switch {
		case remote != "":
			opts = append(opts, rvgo.WithRemote(remote), rvgo.WithShards(max(shards, 1)))
		case shards > 0:
			opts = append(opts, rvgo.WithShards(shards))
		}
		mon, err := rvgo.New(prop, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return &live{Monitor: mon, t: t, s: rv.New(mon, rv.Options{ManualPoll: true})}
	}}
}

// startServer runs an in-process monitoring server for the remote cells.
func startServer(t testing.TB) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rvgo.NewServer(rvgo.ServerOptions{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return l.Addr().String()
}

// TestLiveOracle is the acceptance oracle of the live-object frontend: a
// random stream re-run with real objects dropped at its death points (and
// collected by the real Go GC) settles like the sequential engine's run
// with explicit frees, on the sequential engine, the sharded runtime, and
// remote sessions, under all three GC policies.
func TestLiveOracle(t *testing.T) {
	addr := startServer(t)
	propsUnder := []string{"HasNext", "UnsafeIter", "UnsafeMapIter"}
	seeds := int64(2)
	if testing.Short() {
		propsUnder = propsUnder[:2]
		seeds = 1
	}
	bs := []conformance.Backend{
		liveBackend("seq", 1, 0, ""),
		liveBackend("shard4", 4, 4, ""),
		liveBackend("remote1", 1, 1, addr),
		liveBackend("remote4", 4, 4, addr),
	}
	for _, prop := range propsUnder {
		for seed := int64(0); seed < seeds; seed++ {
			s := conformance.Random(conformance.Prop(t, prop), seed, 160)
			t.Run(s.Name, func(t *testing.T) { conformance.Diff(t, s, bs, conformance.GCModes()) })
		}
	}
}
