package shard

import (
	"testing"
	"time"
	"unsafe"

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

// TestFreesRideTheBatch is the mailbox analogue of internal/remote's
// TestFreesRideTheBlock: with no sync operation, events and frees leave in
// batches — a death costs no mailbox send of its own.
func TestFreesRideTheBatch(t *testing.T) {
	spec := buildProp(t, "UnsafeIter")
	const batch = batchSize
	rt := newRuntime(t, spec, Options{
		Options:         monitor.Options{GC: monitor.GCCoenable},
		Shards:          2,
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
	total := uint64(0)
	for _, w := range rt.workers {
		total += w.metBatchEvents.Value()
	}
	// Each pair's create, next and free go to its collection's shard only.
	if total != 3*iters {
		t.Fatalf("%d records shipped, want the %d events and frees, each to one shard", total, 3*iters)
	}
	for i, w := range rt.workers {
		sends, records := w.metBatches.Value(), w.metBatchEvents.Value()
		// One send per full batch, one for the tail, and one per linger
		// period that elapsed meanwhile (a slow machine lets the deadline
		// fire mid-stream, which is the policy working).
		if budget := (records+batch-1)/batch + 1 + uint64(elapsed/linger); sends > budget {
			t.Errorf("shard %d: %d records (%v) took %d mailbox sends, want <= %d",
				i, records, elapsed, sends, budget)
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
		// The handler sees the caller's own ref.
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

// TestObjectRecordHygiene: the shard engines hold an object from its first
// mention to its free record. After the frees and a Flush the records are
// exactly the live objects'; freeing an object no event mentioned leaves
// nothing; a second free of an object dies once. The caller's kills change
// nothing: only free records do.
func TestObjectRecordHygiene(t *testing.T) {
	spec := buildProp(t, "UnsafeIter")
	rt := newRuntime(t, spec, Options{Options: monitor.Options{GC: monitor.GCCoenable}, Shards: 4})
	defer rt.Close()
	create, _ := spec.Symbol("create")
	next, _ := spec.Symbol("next")
	records := func() int {
		rt.Flush()
		n, dead := rt.ObjectRecords()
		if dead != 0 {
			t.Fatalf("%d dead object records after Flush", dead)
		}
		return n
	}
	h := heap.New()
	o := h.Alloc("never mentioned")
	rt.Free(o)
	h.Free(o)
	if n := records(); n != 0 {
		t.Fatalf("freeing an unmentioned object left %d object records", n)
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
			rt.Free(it) // a double free dies once
		} else {
			unfreed = append(unfreed, c, it)
		}
	}
	// A live collection and its iterator each have one record, on the
	// collection's shard: next does not bind the pivot, and goes only to
	// the shard the iterator's records went to.
	live := len(unfreed)
	if n := records(); n != live {
		t.Fatalf("%d object records after the frees, want the %d of the objects still alive", n, live)
	}
	for _, o := range unfreed {
		h.Free(o) // killed without a Free: the shards keep them
	}
	if n := records(); n != live {
		t.Fatalf("%d object records after kills without a Free, want %d", n, live)
	}
	for _, o := range unfreed {
		rt.Free(o)
	}
	if n := records(); n != 0 {
		t.Fatalf("%d object records after every Free, want 0", n)
	}
	if st := rt.Stats(); st.Created != 500 || st.Collected != 500 {
		t.Errorf("settled %+v, want 500 monitors created and collected", st)
	}
}

// TestDispatchNoAlloc: an event costs no allocation on the producer side or
// in the workers, whether it mentions objects the runtime has seen or, each
// time, a fresh object that is freed right after; the engines' tables and
// slabs grow amortised and recycle.
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
	const runs = 4096
	fresh := make([]*heap.Object, 3*runs)
	for i := range fresh {
		fresh[i] = h.Alloc("f")
	}
	k = 0
	firstMention := func() {
		o := fresh[k]
		k++
		rt.Dispatch(hnT, param.Of(spec.Events[hnT].Params, o))
		rt.Free(o)
	}
	for i := 0; i < runs; i++ { // the engines' tables reach their churn size
		firstMention()
	}
	rt.Barrier()
	if avg := testing.AllocsPerRun(runs, firstMention); avg != 0 {
		t.Errorf("Dispatch of a fresh object and its Free allocate %.1f times per event, want 0", avg)
	}
}

// TestBatchRecordLayout pins the size of a batch record: the instance plus
// one word. IDs travel in the batch's column, not in the record.
func TestBatchRecordLayout(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 152 {
		t.Errorf("a batch record is %d B, want at most 152", n)
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
