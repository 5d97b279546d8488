package shard_test

import (
	"fmt"
	"sync"
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// deep is a mailbox depth, in batches, for a stream of steps steps: the
// producer may get the whole stream ahead of the workers, each kill far
// ahead of the free record that positions it.
func deep(steps int) int { return steps + 2 }

// TestFreeAsyncEquivalence: random streams with mid-stream deaths, each
// object killed the instant its Free returns or, named by ID, dying by
// FreeIDs, settle alike on the sequential engine and on 1/2/4/8 shards
// under all three GC policies.
func TestFreeAsyncEquivalence(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	const steps = 300
	bs := []conformance.Backend{conformance.Engine, conformance.EngineIDs}
	for _, n := range []int{1, 2, 4, 8} {
		bs = append(bs, backends(shards{n: n, batch: 4, depth: deep(steps)}, shards{n: n, batch: 4, depth: deep(steps), byID: true})...)
	}
	for _, name := range []string{"HasNext", "UnsafeIter", "UnsafeMapIter"} {
		for seed := int64(0); seed < seeds; seed++ {
			s := conformance.Random(conformance.Prop(t, name), 100+seed, steps)
			t.Run(s.Name, func(t *testing.T) { conformance.Diff(t, s, bs, conformance.GCModes()) })
		}
	}
}

// TestKillRightAfterFree: with the workers parked, the producer emits,
// Frees and kills at once; only then are the workers released. Every event
// ahead of a free record must observe the object alive although the
// caller's own ref has long said dead; objects named by ID (FreeIDs) are
// held to the same. Each stream must give a verdict, and collect a monitor
// under coenable GC, or there is nothing to see early or late.
func TestKillRightAfterFree(t *testing.T) {
	const steps = 600
	var bs []conformance.Backend
	for _, n := range []int{1, 2, 4} {
		bs = append(bs, backends(shards{n: n, batch: 4, depth: deep(steps), park: true}, shards{n: n, batch: 4, depth: deep(steps), park: true, byID: true})...)
	}
	for seed := int64(200); seed < 202; seed++ {
		s := conformance.Random(conformance.Prop(t, "UnsafeIter"), seed, steps).Exercising()
		t.Run(s.Name, func(t *testing.T) { conformance.Diff(t, s, bs, conformance.GCModes()) })
	}
}

// TestKillRightAfterFreeStress is the same contract at full speed, the
// workers racing the producer's kills through every batch trigger: a death
// must never be seen early (before the shard's free record) nor late. Run
// it under -race -count=20.
func TestKillRightAfterFreeStress(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	var bs []conformance.Backend
	for _, batch := range []int{1, 5, 64} {
		bs = append(bs, backends(shards{n: 2, batch: batch, depth: deep(n)}, shards{n: 2, batch: batch, depth: deep(n), byID: true})...)
	}
	conformance.Diff(t, conformance.Random(conformance.Prop(t, "UnsafeIter"), 7, n), bs,
		[]conformance.Mode{{GC: monitor.GCCoenable}})
}

// TestFreeAsyncConcurrent drives concurrent producers that interleave
// events and immediately-killed Free deaths on the same sharded runtime:
// free records of different objects may enter two mailboxes in opposite
// orders, and since no worker waits for another that must neither
// deadlock nor lose an event.
func TestFreeAsyncConcurrent(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewSized(spec, shard.Options{
		Options: monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:  4,
	}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	hnT, _ := spec.Symbol("hasnexttrue")
	nxt, _ := spec.Symbol("next")
	const producers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				it := h.Alloc(fmt.Sprintf("p%d_%d", p, r))
				monitor.Emit(rt, hnT, it)
				monitor.Emit(rt, nxt, it)
				rt.Free(it)
				h.Free(it)
			}
		}(p)
	}
	wg.Wait()
	rt.Flush()
	st := rt.Stats()
	rt.Close()
	if want := uint64(producers * rounds * 2); st.Events != want {
		t.Errorf("Events = %d, want %d", st.Events, want)
	}
	if live, _, frees := h.Stats(); live != 0 || frees != producers*rounds {
		t.Errorf("heap: live=%d frees=%d, want 0/%d", live, frees, producers*rounds)
	}
}
