package cluster_test

import (
	"net"
	"testing"
	"time"

	"rvgo/internal/cluster"
	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/remote"
	"rvgo/internal/shard"
)

// slotOf is the slot a pivot object ID hashes to on a ring of
// defaultSlots under seed 0 (DESIGN.md, "Topology").
func slotOf(id uint64) int { return shard.LaneOf(id, 0, defaultSlots) }

// migration is a fixed UnsafeIter stream (create(c,i), update(c),
// next(i); the pivot is c) whose iterators move between the slots of
// three collections on distinct slots s1, s2, s3:
//
//   - j is named first by next(j), before any create: its object has no
//     placement yet, so the event goes to every slot.
//   - i is created with c1, then with c2 (a move without stamps), then
//     stepped by next(i) on s1 and s2 only, and then created with c3: a
//     move that must first prime s3 with next(i). Without the primer s3
//     would build the (c3,i) monitor the sequential engine refuses (i's
//     next preceded the create), and it would match.
//   - k lives on s1 and s2 and dies there; its free goes to those two
//     slots only, and the collection it causes on each shows when either
//     slot misses it (under coenable and alldead GC).
func migration(t *testing.T) conformance.Stream {
	spec := conformance.Prop(t, "UnsafeIter")
	const j, i, k = 0, 1, 2
	var c []int // three collection ordinals on distinct slots
	taken := map[int]bool{}
	for o := k + 1; len(c) < 3; o++ {
		if s := slotOf(uint64(o) + 1); !taken[s] {
			taken[s] = true
			c = append(c, o)
		}
	}
	const create, update, next = 0, 1, 2
	ev := func(sym int, objs ...int) conformance.Step { return conformance.Step{Sym: sym, Objs: objs} }
	free := func(o int) conformance.Step { return conformance.Step{Sym: -1, Objs: []int{o}} }
	steps := []conformance.Step{
		ev(next, j),
		ev(create, c[0], j),
		ev(create, c[0], i),
		ev(create, c[1], i),
		ev(next, i),
		ev(create, c[2], i),
		ev(update, c[2]),
		ev(update, c[0]),
		ev(update, c[1]),
		ev(next, i),
		ev(create, c[0], k),
		ev(create, c[1], k),
		ev(next, k),
		free(k),
		ev(update, c[0]),
		ev(update, c[1]),
		free(i), free(c[0]), free(c[1]), free(c[2]), free(j),
	}
	return conformance.Stream{Name: "UnsafeIter/migration", Spec: spec, Steps: steps}.Exercising()
}

// TestMaskMigrationOracle holds the migration stream, through a cluster
// client and through a router, to the sequential engine under every GC
// policy: a free follows only its object's lanes, and a lane an object
// moves to is primed with its stamps.
func TestMaskMigrationOracle(t *testing.T) {
	conformance.Diff(t, migration(t), []conformance.Backend{
		{
			Name:  "cluster",
			Lanes: defaultSlots,
			Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
				_, dial := startNodes(t, "n1", "n2")
				return openCluster(t, spec, m, onVerdict, dial, "n1", "n2")
			},
		},
		{
			Name:  "router",
			Lanes: defaultSlots,
			Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
				_, dial := startNodes(t, "n1", "n2")
				return dialRouter(t, spec, m.GC, onVerdict, dial, "n1", "n2")
			},
		},
	}, conformance.GCModes())
}

// dialRouter serves a Router over the given nodes and returns a remote
// client of it.
func dialRouter(t *testing.T, spec *monitor.Spec, gc monitor.GCPolicy, onVerdict func(monitor.Verdict), dial func(string) (net.Conn, error), nodes ...string) *remote.Client {
	t.Helper()
	rtr, err := cluster.NewRouter(cluster.RouterOptions{Nodes: nodes, Dial: dial})
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
		Prop: spec.Name, GC: gc, OnVerdict: onVerdict,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestMaskReleases: a free reaches only the slots its object's records
// went to, and the fanout releases the object on every other lane itself,
// so the client's table still lets the object go — through a cluster
// client's Front, and as Release frames on a router's upstream session.
// An object no event named has no placement and is freed on every slot.
func TestMaskReleases(t *testing.T) {
	for _, via := range []string{"client", "router"} {
		t.Run(via, func(t *testing.T) {
			nodes, dial := startNodes(t, "n1", "n2")
			spec := conformance.Prop(t, "UnsafeIter")
			var rt interface {
				monitor.Runtime
				HeldRefs() int
			}
			if via == "client" {
				rt = openCluster(t, spec, conformance.Mode{GC: monitor.GCCoenable}, func(monitor.Verdict) {}, dial, "n1", "n2")
			} else {
				rt = dialRouter(t, spec, monitor.GCCoenable, func(monitor.Verdict) {}, dial, "n1", "n2")
			}
			defer rt.Close()
			frees := func() (n float64) {
				rt.Barrier()
				for _, nd := range nodes {
					n += conformance.CounterSum(nd.srv.Metrics(), "rv_server_frees_total")
				}
				return n
			}
			h := heap.New()
			col, it, stranger := h.Alloc("c"), h.Alloc("i"), h.Alloc("x")
			monitor.Emit(rt, 0, col, it)
			monitor.Emit(rt, 2, it)
			rt.Free(it)
			if n := frees(); n != 1 {
				t.Errorf("the iterator's free reached %v slots, want its collection's one", n)
			}
			rt.Free(col)
			if n := frees(); n != 2 {
				t.Errorf("after the collection's free the slots applied %v frees, want 2", n)
			}
			rt.Free(stranger)
			if n := frees(); n != 2+defaultSlots {
				t.Errorf("after a free of an object no event named the slots applied %v frees, want %d", n, 2+defaultSlots)
			}
			rt.Flush()
			if n := rt.HeldRefs(); n != 0 {
				t.Errorf("after Flush the table holds %d refs, want none: some lane never released", n)
			}
			if e, ok := rt.(interface{ Err() error }); ok && e.Err() != nil {
				t.Fatal(e.Err())
			}
		})
	}
}
