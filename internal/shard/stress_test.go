package shard_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// TestShardArenaRaceStress hammers a 4-shard runtime with concurrent
// producers interleaving Dispatch and Free-then-kill while a tiny sweep
// interval keeps the workers collecting and recycling arena slots
// mid-traffic, and an observer goroutine snapshots Stats/ArenaStats
// through the control rendezvous the whole time. Built to run under
// -race (which also arms the pool poison checks): the schedule is the
// test. The settled assertions prove per-shard arena ownership — each
// worker's slab arena accounts exactly the monitors that worker owns,
// and recycling actually happened under concurrency (the high-water
// mark stays well below the total monitor count).
func TestShardArenaRaceStress(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.New(spec, shard.Options{
		Options: monitor.Options{
			GC:       monitor.GCCoenable,
			Creation: monitor.CreateEnable,
			// Sweep constantly: slot recycling must race the producers.
			SweepInterval: 16,
		},
		Shards: 4, BatchSize: 2, MailboxDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")

	h := heap.New()
	const producers = 8
	const rounds = 250

	// Observer: concurrent counter/occupancy snapshots must be safe
	// against dispatch, deaths and sweeps (they ride the same rendezvous
	// the workers use for Flush).
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.Stats()
			for i, ast := range rt.ArenaStats() {
				if ast.Live < 0 || ast.Live > ast.Cap {
					t.Errorf("shard %d arena snapshot inconsistent: %+v", i, ast)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			c := h.Alloc(fmt.Sprintf("c%d", p))
			for r := 0; r < rounds; r++ {
				if r > 0 && r%16 == 0 {
					// Rotate the collection: its death must flag and
					// reclaim every monitor still pinned to it.
					rt.Free(c)
					h.Free(c)
					c = h.Alloc(fmt.Sprintf("c%d_%d", p, r))
				}
				it := h.Alloc(fmt.Sprintf("i%d_%d", p, r))
				monitor.Emit(rt, create, c, it)
				monitor.Emit(rt, update, c)
				monitor.Emit(rt, next, it) // the UNSAFEITER match
				rt.Free(it)
				h.Free(it)
			}
			rt.Free(c)
			h.Free(c)
		}(p)
	}
	wg.Wait()
	rt.Barrier()
	close(stop)
	obs.Wait()

	rt.Flush()
	shardStats := rt.ShardStats()
	arenaStats := rt.ArenaStats()
	st := rt.Stats()

	// Per-shard arena ownership: each worker's arena accounts exactly the
	// monitors that worker still holds — no record leaked into or out of
	// another shard's slabs.
	var high int
	for i := range shardStats {
		if arenaStats[i].Live != int(shardStats[i].Live) {
			t.Errorf("shard %d: arena live %d != engine live %d",
				i, arenaStats[i].Live, shardStats[i].Live)
		}
		high += arenaStats[i].HighWater
	}

	if want := uint64(producers * rounds * 3); st.Events != want {
		t.Errorf("Events = %d, want %d", st.Events, want)
	}
	// Every parameter object died and the flush expunged, so coenable GC
	// must have reclaimed the whole population...
	if st.Live != 0 || st.Created != st.Collected {
		t.Errorf("population not reclaimed: %+v", st)
	}
	// ...and it must have been reclaiming all along: had slots only been
	// freed at the final flush, the high-water mark would equal the full
	// monitor count.
	if high >= producers*rounds {
		t.Errorf("arena high water %d, want < %d (no mid-run slot recycling?)", high, producers*rounds)
	}
	if live, _, _ := h.Stats(); live != 0 {
		t.Errorf("heap live = %d after all deaths", live)
	}
	rt.Close()
}
