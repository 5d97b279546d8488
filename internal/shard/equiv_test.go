package shard_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// shards is the sharded runtime as a harness backend: n workers, batch
// records per batch (0: the default), mailboxes depth batches deep (0: the
// default), fed by ref or by ID. With try the IDs go through
// TryDispatchIDs and a retry loop; with park the workers are held until
// the whole stream is in their mailboxes, which must be deep enough for
// it.
type shards struct {
	n, batch, depth int
	byID, try, park bool
}

func (c shards) backend() conformance.Backend {
	name := fmt.Sprintf("shard%d", c.n)
	if c.batch != 0 {
		name += fmt.Sprintf("-batch%d", c.batch)
	}
	switch {
	case c.park:
		name += "-parked"
	case c.try:
		name += "-try"
	}
	if c.byID {
		name += "-ids"
	}
	return conformance.Backend{Name: name, Lanes: c.n, ByID: c.byID, Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
		opts := shard.Options{Options: m.Options(onVerdict), Shards: c.n}
		rt, err := shard.NewSized(spec, opts, c.batch, c.depth)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case c.park:
			return &parked{Runtime: rt, release: rt.Park()}
		case c.try:
			return tryFeed{rt}
		}
		return rt
	}}
}

// tryFeed enters events through TryDispatchIDs, retrying until accepted.
type tryFeed struct{ *shard.Runtime }

func (r tryFeed) DispatchIDs(sym int, ids []uint64) {
	for !r.TryDispatchIDs(sym, ids) {
		runtime.Gosched()
	}
}

// TestTryDispatchRefusalsRetried: with the workers parked behind one-batch
// mailboxes, TryDispatchIDs refuses whenever a shard the event goes to is
// full. A refused event leaves no record on any shard, and the stream, each
// refused event retried once the shards drained, settles like the
// sequential engine's.
func TestTryDispatchRefusalsRetried(t *testing.T) {
	spec := conformance.Prop(t, "UnsafeIter")
	refused := 0
	b := conformance.Backend{Name: "shard2-refusing-ids", Lanes: 2, ByID: true, Open: func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
		rt, err := shard.NewSized(spec, shard.Options{Options: m.Options(onVerdict), Shards: 2}, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return &refusing{Runtime: rt, t: t, refused: &refused, release: rt.Park()}
	}}
	for seed := int64(0); seed < 2; seed++ {
		s := conformance.Random(spec, seed, 300)
		t.Run(s.Name, func(t *testing.T) {
			conformance.Diff(t, s, []conformance.Backend{b}, []conformance.Mode{{GC: monitor.GCCoenable}})
		})
	}
	if refused == 0 {
		t.Fatal("no event was refused")
	}
}

// refusing feeds a parked runtime through TryDispatchIDs: a refusal must
// leave every shard's backlog as it was (with one-record batches, the
// backlog is the mailbox's), and the event is retried after the
// workers drained and were parked again. A free drains the workers first:
// it blocks on a full mailbox.
type refusing struct {
	*shard.Runtime
	t       *testing.T
	refused *int
	release func()
}

func (r *refusing) drain() {
	r.release()
	r.Barrier()
	r.release = r.Park()
}

func (r *refusing) DispatchIDs(sym int, ids []uint64) {
	for {
		before := r.QueueDepths()
		if r.TryDispatchIDs(sym, ids) {
			return
		}
		*r.refused++
		if after := r.QueueDepths(); !slices.Equal(before, after) {
			r.t.Errorf("a refused %s left records: backlog %v, was %v", r.Spec().Events[sym].Name, after, before)
		}
		r.drain()
	}
}

func (r *refusing) FreeIDs(ids []uint64) {
	r.release()
	r.Runtime.FreeIDs(ids)
	r.release = r.Park()
}

func (r *refusing) Flush() {
	r.release()
	r.Runtime.Flush()
}

// parked releases its held workers at Flush: every event then reaches a
// worker after every kill, the worst case for a design that would read
// the caller's liveness behind the free record.
type parked struct {
	*shard.Runtime
	release func()
}

func (p *parked) Flush() {
	p.release()
	p.Runtime.Flush()
}

func backends(cs ...shards) []conformance.Backend {
	var out []conformance.Backend
	for _, c := range cs {
		out = append(out, c.backend())
	}
	return out
}

// TestShardEquivalenceAllProps is the core oracle: for every property in
// the library (plus a spec with a propositional event), random streams
// with mid-stream object deaths produce the same per-slice verdict
// sequences and settled counters on the sharded runtime (N ∈ {1,2,4,8})
// as on the sequential engine, under all three GC policies. At N = 4 the
// stream goes in by ID, through TryDispatchIDs.
func TestShardEquivalenceAllProps(t *testing.T) {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	bs := backends(shards{n: 1, batch: 4}, shards{n: 2, batch: 4}, shards{n: 4, batch: 4, byID: true, try: true}, shards{n: 8, batch: 4})
	for _, spec := range conformance.Specs(t) {
		for seed := int64(0); seed < seeds; seed++ {
			s := conformance.Random(spec, seed, 300)
			t.Run(s.Name, func(t *testing.T) { conformance.Diff(t, s, bs, conformance.GCModes()) })
		}
	}
}

// TestSweepScheduleIndependence holds the sequential engine's outcome to
// its sweep schedule: the same stream swept after every event or every 16
// events settles like the default pacing (settle leaves out what still
// depends on the schedule). The engine fed by ID and two shards, which
// collect at their frees and events, are held to the positioned
// reference exactly, Flagged, Steps and PeakLive included, whatever the
// interval.
func TestSweepScheduleIndependence(t *testing.T) {
	bs := append([]conformance.Backend{conformance.Engine, conformance.EngineIDs}, backends(shards{n: 2, batch: 4})...)
	for _, spec := range conformance.Specs(t) {
		for seed := int64(0); seed < 4; seed++ {
			s := conformance.Random(spec, seed, 300)
			t.Run(s.Name, func(t *testing.T) {
				conformance.Diff(t, s, bs, conformance.SweepModes())
			})
		}
	}
}

// TestShardEquivalenceDaCapo replays recorded DaCapo workloads — events
// and object deaths in program order, each death positioned by the heap's
// free hook — through the property adapters into the sharded runtime.
func TestShardEquivalenceDaCapo(t *testing.T) {
	benches := []struct {
		name  string
		scale float64
	}{
		{"avrora", 0.02},
		{"bloat", 0.002},
		{"xalan", 1.0},
	}
	bs := backends(shards{n: 1}, shards{n: 2}, shards{n: 4}, shards{n: 8})
	if testing.Short() {
		benches = benches[:1]
		bs = backends(shards{n: 4})
	}
	for _, b := range benches {
		for _, s := range conformance.Recorded(t, b.name, b.scale, props.DaCapoProperties()...) {
			t.Run(s.Name, func(t *testing.T) { conformance.Diff(t, s, bs, conformance.GCModes()) })
		}
	}
}

// TestShardParallelProducers is the randomized multi-goroutine dispatch
// oracle (run under -race in CI): four producers with disjoint object
// families feed one sharded runtime concurrently, all by ref or all by ID
// (the odd families through TryDispatchIDs). Slices of disjoint families
// are independent, so the outcome must equal the sequential engine's run
// of the families back to back.
func TestShardParallelProducers(t *testing.T) {
	spec := conformance.Prop(t, "UnsafeIter")
	const families = 4
	rounds := int64(6)
	if testing.Short() {
		rounds = 2
	}
	for seed := int64(0); seed < rounds; seed++ {
		s := conformance.Stream{Name: fmt.Sprintf("parallel/seed%d", seed), Spec: spec}
		var bounds []int // bounds[g]: the first ordinal past family g
		base := 0
		for g := int64(0); g < families; g++ {
			for _, st := range conformance.Random(spec, 1000*seed+g, 400).Steps {
				objs := make([]int, len(st.Objs))
				for k, o := range st.Objs {
					objs[k] = base + o
				}
				s.Steps = append(s.Steps, conformance.Step{Sym: st.Sym, Objs: objs})
				base = max(base, slices.Max(objs)+1)
			}
			bounds = append(bounds, base)
		}
		var bs []conformance.Backend
		for _, byID := range []bool{false, true} {
			b := shards{n: 4, batch: 8, byID: byID}.backend()
			open := b.Open
			b.Open = func(t *testing.T, spec *monitor.Spec, m conformance.Mode, onVerdict func(monitor.Verdict)) monitor.Runtime {
				return newProducers(open(t, spec, m, onVerdict).(*shard.Runtime), bounds)
			}
			b.Name += "-producers"
			bs = append(bs, b)
		}
		t.Run(s.Name, func(t *testing.T) {
			conformance.Diff(t, s, bs, []conformance.Mode{{GC: monitor.GCCoenable}})
		})
	}
}

// producers feeds a sharded runtime from one goroutine per object family
// (bounds[g] is the first ordinal past family g; ordinal o is ID o+1):
// each family keeps its order and the families race. Flush waits for
// every producer.
type producers struct {
	*shard.Runtime
	bounds []int
	queues []chan func()
	wg     sync.WaitGroup
}

func newProducers(rt *shard.Runtime, bounds []int) *producers {
	p := &producers{Runtime: rt, bounds: bounds}
	for range bounds {
		// Deep, so the single-threaded driver runs well ahead of every
		// family and the families overlap instead of taking turns.
		q := make(chan func(), 1024)
		p.queues = append(p.queues, q)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for f := range q {
				f()
			}
		}()
	}
	return p
}

func (p *producers) family(id uint64) int {
	g := 0
	for int(id-1) >= p.bounds[g] {
		g++
	}
	return g
}

func (p *producers) Dispatch(sym int, theta param.Instance) {
	p.queues[p.family(theta.Value(theta.Mask().First()).ID())] <- func() { p.Runtime.Dispatch(sym, theta) }
}

func (p *producers) Free(ref heap.Ref) {
	p.queues[p.family(ref.ID())] <- func() { p.Runtime.Free(ref) }
}

func (p *producers) DispatchIDs(sym int, ids []uint64) {
	ids = append([]uint64(nil), ids...)
	g := p.family(ids[0])
	p.queues[g] <- func() {
		if g%2 == 0 {
			p.Runtime.DispatchIDs(sym, ids)
			return
		}
		for !p.TryDispatchIDs(sym, ids) {
			runtime.Gosched()
		}
	}
}

func (p *producers) FreeIDs(ids []uint64) {
	ids = append([]uint64(nil), ids...)
	p.queues[p.family(ids[0])] <- func() { p.Runtime.FreeIDs(ids) }
}

func (p *producers) Flush() {
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
	p.Runtime.Flush()
}
