package shard_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// execTraceFreeAsync is execTrace with deaths delivered as Free records
// and the object — a caller-owned ref with a bare atomic flag, as in
// internal/bench — killed the instant Free returns, instead of
// Barrier-then-kill: the producer never stalls on a death, yet the
// positioning contract promises the same per-slice event/death sequences —
// and therefore identical results. With park the workers are held until
// the producer has emitted, freed and killed everything: every liveness
// check then happens after every kill, the worst case for a design that
// reads the caller's liveness behind the record.
func execTraceFreeAsync(t testing.TB, spec *monitor.Spec, gc monitor.GCPolicy, shards, batch int, steps []gstep, park bool) result {
	t.Helper()
	verdicts := map[string][]string{}
	opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable, OnVerdict: recordVerdicts(spec, verdicts)}
	var rt monitor.Runtime
	release := func() {}
	if shards == 0 {
		eng, err := monitor.New(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		rt = eng
	} else {
		// Deep enough for the whole trace: a parked worker must not turn
		// into backpressure on the producer.
		srt, err := shard.New(spec, shard.Options{Options: opts, Shards: shards, BatchSize: batch, MailboxDepth: len(steps) + 2})
		if err != nil {
			t.Fatal(err)
		}
		if park {
			release = srt.Park()
		}
		rt = srt
	}
	objs := map[int]*shard.FlagRef{}
	get := func(o int) *shard.FlagRef {
		v, ok := objs[o]
		if !ok {
			v = &shard.FlagRef{Ident: uint64(o) + 1, Name: fmt.Sprintf("o%d", o)}
			objs[o] = v
		}
		return v
	}
	for _, st := range steps {
		if st.sym < 0 {
			o := get(st.objs[0])
			rt.Free(o)
			o.Kill()
			continue
		}
		vals := make([]heap.Ref, len(st.objs))
		for k, o := range st.objs {
			vals[k] = get(o)
		}
		monitor.Emit(rt, st.sym, vals...)
	}
	release()
	rt.Flush()
	st := rt.Stats()
	rt.Close()
	return result{verdicts: verdicts, stats: st}
}

// TestFreeAsyncEquivalence: random traces with mid-trace deaths produce
// the same per-slice verdict sequences and settled counters whether deaths
// ride the synchronous Barrier-then-kill path or pipelined Free records
// (killed at once), on the sequential engine and on 1/2/4/8 shards, under
// all three GC policies.
func TestFreeAsyncEquivalence(t *testing.T) {
	gcs := []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable}
	propsUnder := []string{"HasNext", "UnsafeIter", "UnsafeMapIter"}
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for _, name := range propsUnder {
		spec, err := props.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := 0; seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(int64(100 + seed)))
			steps := genTrace(rng, spec, 300)
			for _, gc := range gcs {
				oracle := execTrace(t, spec, gc, 0, 0, steps, false)
				for _, n := range []int{0, 1, 2, 4, 8} {
					got := execTraceFreeAsync(t, spec, gc, n, 4, steps, false)
					compareResults(t, fmt.Sprintf("%s/seed%d/gc=%s/shards=%d/freeasync", name, seed, gc, n), oracle, got)
				}
			}
		}
	}
}

// TestKillRightAfterFree: with the workers parked, the producer emits,
// Frees and kills at once; only then are the workers released. Per-slice
// verdicts and settled counters must equal the sequential engine's — every
// event ahead of a free record observes the object alive although the
// caller's own ref has long said dead.
func TestKillRightAfterFree(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 2; seed++ {
		steps := genTrace(rand.New(rand.NewSource(200+seed)), spec, 600)
		for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
			oracle := execTrace(t, spec, gc, 0, 0, steps, false)
			if len(oracle.verdicts) == 0 || (gc == monitor.GCCoenable && oracle.stats.Collected == 0) {
				t.Fatalf("seed %d gc=%s: the trace exercises nothing: %+v", seed, gc, oracle.stats)
			}
			for _, n := range []int{1, 2, 4} {
				got := execTraceFreeAsync(t, spec, gc, n, 4, steps, true)
				compareResults(t, fmt.Sprintf("seed%d/gc=%s/shards=%d/parked", seed, gc, n), oracle, got)
			}
		}
	}
}

// TestKillRightAfterFreeStress is the same contract at full speed, the
// workers racing the producer's kills through every batch trigger: a death
// must never be seen early (view.Alive's read order) nor late. Run it
// under -race -count=20.
func TestKillRightAfterFreeStress(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	n := 20000
	if testing.Short() {
		n = 4000
	}
	steps := genTrace(rand.New(rand.NewSource(7)), spec, n)
	oracle := execTrace(t, spec, monitor.GCCoenable, 0, 0, steps, false)
	for _, batch := range []int{1, 5, 64} {
		got := execTraceFreeAsync(t, spec, monitor.GCCoenable, 2, batch, steps, false)
		compareResults(t, fmt.Sprintf("batch=%d", batch), oracle, got)
	}
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
	rt, err := shard.New(spec, shard.Options{
		Options: monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable},
		Shards:  4, BatchSize: 2, MailboxDepth: 2,
	})
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
