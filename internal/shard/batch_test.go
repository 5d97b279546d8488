package shard

import (
	"testing"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
)

func buildProp(t testing.TB, name string) *monitor.Spec {
	t.Helper()
	spec, err := props.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func newRuntime(t testing.TB, spec *monitor.Spec, opts Options) *Runtime {
	t.Helper()
	rt, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestViewReadsCallerRefFirst pins the order of the two loads in
// view.Alive deterministically: a Free and the caller's kill land after
// the first load and before the second. Reading the caller's ref first
// then finds the state already held; reading the state first would pair a
// stale "follow" with the kill and report a death the shard's stream has
// not reached.
func TestViewReadsCallerRefFirst(t *testing.T) {
	r := &FlagRef{Ident: 1}
	v := &view{inner: r}
	r.peek = func() {
		r.peek = nil
		v.state.Store(viewHeld) // Free ...
		r.dead.Store(true)      // ... and the kill right behind it
	}
	if !v.Alive() {
		t.Fatal("a view reported dead with its free record still ahead of the worker")
	}
	if !v.Alive() {
		t.Fatal("a held view must stay alive after the caller's kill")
	}
	v.state.Store(viewDead)
	if v.Alive() {
		t.Fatal("a view must be dead once its shard passed the free record")
	}
	if v.ID() != 1 || v.Label() != "f1" {
		t.Fatalf("identity after death = %d %q, want 1 \"f1\"", v.ID(), v.Label())
	}
}

// TestFreesRideTheBatch is the mailbox analogue of internal/remote's
// TestFreesRideTheBlock: with no sync operation, events and frees leave in
// batches — a death costs no mailbox send of its own.
func TestFreesRideTheBatch(t *testing.T) {
	spec := buildProp(t, "UnsafeIter")
	const batch = 64
	rt := newRuntime(t, spec, Options{
		Options: monitor.Options{GC: monitor.GCCoenable},
		Shards:  2, BatchSize: batch,
		MetricsRegistry: metrics.NewRegistry(),
	})
	defer rt.Close()
	create, _ := spec.Symbol("create")
	next, _ := spec.Symbol("next")
	const iters = 1000
	h := heap.New()
	start := time.Now()
	for k := 0; k < iters; k++ {
		c, it := h.Alloc("c"), h.Alloc("i")
		monitor.Emit(rt, create, c, it)
		monitor.Emit(rt, next, it)
		rt.Free(it)
		h.Free(it)
	}
	elapsed := time.Since(start)
	rt.Barrier() // the tail leaves here: one more send per shard
	for i, w := range rt.workers {
		sends, records := w.metBatches.Value(), w.metBatchEvents.Value()
		if records < iters {
			t.Fatalf("shard %d: %d records shipped, want at least the %d frees", i, records, iters)
		}
		// One send per full batch, one for the tail, and one per linger
		// period that elapsed meanwhile (a slow machine lets the deadline
		// fire mid-stream, which is the policy working).
		if budget := (records+batch-1)/batch + 1 + uint64(elapsed/linger); sends > budget {
			t.Errorf("shard %d: %d frees among %d records (%v) took %d mailbox sends, want <= %d",
				i, iters, records, elapsed, sends, budget)
		}
	}
}

// TestIdleProducerTimeliness: a producer that goes quiet after one
// verdict-bearing event — no Free, no Barrier, a batch nowhere near full —
// still gets its verdict within the linger bound.
func TestIdleProducerTimeliness(t *testing.T) {
	spec := buildProp(t, "HasNext")
	verdict := make(chan monitor.Verdict, 1)
	rt := newRuntime(t, spec, Options{
		Options: monitor.Options{GC: monitor.GCCoenable, OnVerdict: func(v monitor.Verdict) { verdict <- v }},
		Shards:  2,
	})
	defer rt.Close()
	it := heap.New().Alloc("i")
	for _, ev := range []string{"hasnexttrue", "next", "next"} {
		if err := monitor.EmitNamed(rt, ev, it); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case v := <-verdict:
		// The handler sees the caller's own ref, not the shard's view.
		if got := v.Inst.Value(0); got != heap.Ref(it) {
			t.Errorf("verdict carries %T %v, want the caller's ref", got, got)
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatal("no verdict within 50ms of the last call")
	}
}

// TestVerdictAfterDeathKeepsIdentity: under GCNone a monitor outlives its
// objects, so a verdict can mention one that was freed and killed long
// ago; the handler still gets the caller's ref, label and ID intact.
func TestVerdictAfterDeathKeepsIdentity(t *testing.T) {
	spec := buildProp(t, "UnsafeIter")
	var got []monitor.Verdict
	rt := newRuntime(t, spec, Options{
		Options: monitor.Options{GC: monitor.GCNone, OnVerdict: func(v monitor.Verdict) { got = append(got, v) }},
		Shards:  2,
	})
	h := heap.New()
	c, it := h.Alloc("c"), h.Alloc("i")
	for _, err := range []error{
		monitor.EmitNamed(rt, "create", c, it),
		monitor.EmitNamed(rt, "update", c),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	rt.Free(c)
	h.Free(c)
	if err := monitor.EmitNamed(rt, "next", it); err != nil { // the match, on a slice whose collection is dead
		t.Fatal(err)
	}
	rt.Flush()
	rt.Close()
	if len(got) != 1 {
		t.Fatalf("%d verdicts, want the one match", len(got))
	}
	inst := got[0].Inst
	if inst.Value(0) != heap.Ref(c) || inst.Value(1) != heap.Ref(it) {
		t.Errorf("verdict instance %v does not hold the caller's refs", inst)
	}
	if c.Alive() || inst.Value(0).Label() != "c" || inst.Value(0).ID() != c.ID() {
		t.Errorf("dead collection lost its identity: alive=%v label=%q id=%d", c.Alive(), inst.Value(0).Label(), inst.Value(0).ID())
	}
}

// TestViewTableHygiene: the table holds an object from its first mention
// to its Free — or, for an object that dies without one, to the next
// Flush. An object no event mentioned never enters it.
func TestViewTableHygiene(t *testing.T) {
	spec := buildProp(t, "UnsafeIter")
	rt := newRuntime(t, spec, Options{Options: monitor.Options{GC: monitor.GCCoenable}, Shards: 4})
	defer rt.Close()
	create, _ := spec.Symbol("create")
	next, _ := spec.Symbol("next")
	tableLen := func() int {
		rt.tmu.Lock()
		defer rt.tmu.Unlock()
		return len(rt.views)
	}
	h := heap.New()
	rt.Free(h.Alloc("never mentioned"))
	if n := tableLen(); n != 0 {
		t.Fatalf("freeing an unmentioned object left %d table entries", n)
	}
	var unfreed []*heap.Object
	for k := 0; k < 500; k++ {
		c, it := h.Alloc("c"), h.Alloc("i")
		monitor.Emit(rt, create, c, it)
		monitor.Emit(rt, next, it)
		if k%2 == 0 {
			rt.Free(c)
			rt.Free(it)
			h.Free(c)
			h.Free(it)
		} else {
			unfreed = append(unfreed, c, it)
		}
	}
	if n := tableLen(); n != len(unfreed) {
		t.Fatalf("%d table entries after the frees, want the %d objects still alive", n, len(unfreed))
	}
	// The old contract: barrier, then kill without telling the runtime.
	rt.Barrier()
	for _, o := range unfreed {
		h.Free(o)
	}
	rt.Flush()
	if n := tableLen(); n != 0 {
		t.Fatalf("%d table entries after Flush, want 0", n)
	}
	if st := rt.Stats(); st.Created != 500 || st.Collected != 500 {
		t.Errorf("settled %+v, want 500 monitors created and collected", st)
	}
}

// TestDispatchNoAlloc: an event over objects the runtime has already seen
// costs no allocation on the producer side (a first mention allocates the
// object's one []view, and the table grows amortised).
func TestDispatchNoAlloc(t *testing.T) {
	spec := buildProp(t, "HasNext")
	rt := newRuntime(t, spec, Options{Options: monitor.Options{GC: monitor.GCCoenable}, Shards: 2})
	defer rt.Close()
	hnT, _ := spec.Symbol("hasnexttrue")
	h := heap.New()
	thetas := make([]param.Instance, 16)
	for i := range thetas {
		thetas[i] = param.Of(spec.Events[hnT].Params, h.Alloc("i"))
	}
	k := 0
	dispatch := func() {
		rt.Dispatch(hnT, thetas[k%len(thetas)])
		k++
	}
	for i := 0; i < 4096; i++ { // first mentions, batch pool, engine warm-up
		dispatch()
	}
	rt.Barrier()
	if avg := testing.AllocsPerRun(4096, dispatch); avg != 0 {
		t.Errorf("Dispatch over known objects allocates %.1f times per event, want 0", avg)
	}
}

// TestCloseRacesLinger: Close with a dirty batch and the linger deadline
// about to fire must neither lose the record nor send on the closed
// mailbox. Free after Close stays a silent no-op.
func TestCloseRacesLinger(t *testing.T) {
	spec := buildProp(t, "HasNext")
	hnT, _ := spec.Symbol("hasnexttrue")
	h := heap.New()
	for k := 0; k < 200; k++ {
		rt := newRuntime(t, spec, Options{Options: monitor.Options{GC: monitor.GCCoenable}, Shards: 2})
		it := h.Alloc("i")
		monitor.Emit(rt, hnT, it)
		time.Sleep(linger - 100*time.Microsecond + time.Duration(k)*time.Microsecond)
		rt.Close()
		if st := rt.Stats(); st.Events != 1 || st.Created != 1 {
			t.Fatalf("round %d: final stats %+v, want the one event monitored", k, st)
		}
		rt.Free(it)
	}
}
