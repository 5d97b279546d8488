package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/trace"
)

// record is one element of a stream: a parametric event binding one or two
// objects, or (sym < 0) the death of object a. Objects are named by their
// recorded heap ID, which indexes the per-rep object table.
type record struct {
	sym  int32
	a, b uint32
}

func (r record) free() bool { return r.sym < 0 }

// streamDef is a benchmark-owned workload model. The profile is a literal
// here, not a dacapo.Get lookup, so recalibrating the paper's profiles
// cannot move the benchmark; Work and BaseWork are zero because the
// generator's application busywork is not part of any measured path.
type streamDef struct {
	name    string
	index   int64 // added to -seed, so streams of one run differ
	profile dacapo.Profile
	prop    string
}

// The collection counts are sized so that one sequential pass takes about
// half a second on the reference sandbox: a run has to fit set-up (three
// times, for the setup_s median), a warm-up and several timed reps inside
// the driver's per-run budget. -scale multiplies them.
var (
	churnProfile  = dacapo.Profile{Name: "churn", Collections: 30000, LiveWindow: 120, ItersPerColl: 2, OpsPerIter: 3, UpdatesPerColl: 3, MapShare: .35, SyncShare: .35, UnsafeShare: .1}
	steadyProfile = dacapo.Profile{Name: "steady", Collections: 5000, LiveWindow: 400, ItersPerColl: 4, OpsPerIter: 40, UpdatesPerColl: 8, MapShare: .3, SyncShare: .3, UnsafeShare: .1}

	streamChurn         = streamDef{name: "churn", index: 0, profile: churnProfile, prop: "UnsafeIter"}
	streamSteady        = streamDef{name: "steady", index: 1, profile: steadyProfile, prop: "UnsafeIter"}
	streamSteadyHasNext = streamDef{name: "steady-hasnext", index: 1, profile: steadyProfile, prop: "HasNext"}
	streamChurnSmall    = streamDef{name: "churn-small", index: 2, profile: quarter(churnProfile), prop: "UnsafeIter"}
)

func quarter(p dacapo.Profile) dacapo.Profile {
	p.Name += "-small"
	p.Collections /= 4
	return p
}

// stream is a generated, recorded and re-read stream: what every rep
// replays. recs is what Reader.Scan decoded from the trace file at path,
// so the program under test only ever sees records that went through the
// store.
type stream struct {
	def    streamDef
	spec   *monitor.Spec
	recs   []record
	events int
	frees  int
	maxID  uint32
	path   string // the recorded trace (pivot-indexed, CreateForSpec)
	sha    string // SHA-256 of the trace file
	bytes  int64
	segs   int

	// Layer timings taken while building the stream.
	genDur, encodeDur, openDur, decodeDur time.Duration
}

// capture is the generator-side adapter target: dacapo.Adapt resolves the
// property's events against Spec and calls Dispatch per parametric event.
type capture struct {
	spec *monitor.Spec
	recs []record
	seen []bool // by object ID: the property has mentioned it
}

func (c *capture) Spec() *monitor.Spec { return c.spec }

func (c *capture) EmitNamed(string, ...heap.Ref) error {
	return fmt.Errorf("bench: capture takes the Dispatch fast path only")
}

func (c *capture) Dispatch(sym int, theta param.Instance) {
	r := record{sym: int32(sym)}
	k := 0
	for m := theta.Mask(); m != 0; m = m.Rest() {
		id := theta.Value(m.First()).ID()
		for uint64(len(c.seen)) <= id {
			c.seen = append(c.seen, false)
		}
		c.seen[id] = true
		if k == 0 {
			r.a = uint32(id)
		} else {
			r.b = uint32(id)
		}
		k++
	}
	c.recs = append(c.recs, r)
}

// generate runs the profile once and adapts its instrumentation events to
// the stream's property. Deaths of objects the property never mentioned
// are dropped: no backend could observe them.
func generate(def streamDef, spec *monitor.Spec, seed int64, scale float64) ([]record, error) {
	for _, ev := range spec.Events {
		if n := ev.Params.Count(); n < 1 || n > 2 {
			return nil, fmt.Errorf("bench: event %s binds %d parameters; records hold one or two", ev.Name, n)
		}
	}
	c := &capture{spec: spec}
	sink, err := dacapo.Adapt(def.prop, c)
	if err != nil {
		return nil, err
	}
	rt := dacapo.NewRuntime()
	rt.AddSink(sink)
	rt.Heap.SetFreeHook(func(o *heap.Object) {
		if id := o.ID(); id < uint64(len(c.seen)) && c.seen[id] {
			c.recs = append(c.recs, record{sym: -1, a: uint32(id)})
		}
	})
	p := def.profile
	p.Seed = seed + def.index
	if err := p.Run(rt, scale); err != nil {
		return nil, err
	}
	return c.recs, nil
}

// buildStream generates the stream, records it through trace.Writer into
// dir, and reads it back with trace.Open + Scan. Each step is timed: the
// trace layer's per-record costs come from here.
func buildStream(def streamDef, spec *monitor.Spec, seed int64, scale float64, dir string) (*stream, error) {
	s := &stream{def: def, spec: spec, path: fmt.Sprintf("%s/%s.rvt", dir, def.name)}

	t0 := time.Now()
	gen, err := generate(def, spec, seed, scale)
	if err != nil {
		return nil, err
	}
	s.genDur = time.Since(t0)

	t0 = time.Now()
	w, err := trace.CreateForSpec(s.path, spec, trace.WriterOptions{})
	if err != nil {
		return nil, err
	}
	var ids [2]uint64
	for _, r := range gen {
		ids[0], ids[1] = uint64(r.a), uint64(r.b)
		if r.free() {
			err = w.FreeIDs(ids[:1])
		} else {
			err = w.EventIDs(int(r.sym), ids[:spec.Events[r.sym].Params.Count()])
		}
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	s.encodeDur = time.Since(t0)

	t0 = time.Now()
	rd, err := trace.Open(s.path)
	if err != nil {
		return nil, err
	}
	s.openDur = time.Since(t0)
	if rd.Truncated() {
		return nil, fmt.Errorf("bench: trace %s reads back truncated", s.path)
	}
	s.segs = rd.Segments()

	t0 = time.Now()
	s.recs = make([]record, 0, len(gen))
	err = rd.Scan(func(tr trace.Record) error {
		r := record{sym: int32(tr.Sym), a: uint32(tr.IDs[0])}
		if tr.Free {
			r.sym = -1
			s.frees++
		} else {
			s.events++
			if len(tr.IDs) == 2 {
				r.b = uint32(tr.IDs[1])
			}
		}
		s.maxID = max(s.maxID, r.a, r.b)
		s.recs = append(s.recs, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.decodeDur = time.Since(t0)

	if len(s.recs) != len(gen) {
		return nil, fmt.Errorf("bench: trace %s holds %d records, generated %d", s.path, len(s.recs), len(gen))
	}
	for i := range gen {
		if gen[i] != s.recs[i] {
			return nil, fmt.Errorf("bench: trace %s record %d reads back as %+v, wrote %+v", s.path, i, s.recs[i], gen[i])
		}
	}
	raw, err := os.ReadFile(s.path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	s.sha, s.bytes = hex.EncodeToString(sum[:]), int64(len(raw))
	return s, nil
}

// obj is a replayed parameter object: the recorded ID, alive until the
// stream's free record. Reps share one table and reset it, so the timed
// loop allocates nothing of the benchmark's own. dead is atomic because
// asynchronous backends read liveness on their worker goroutines.
type obj struct {
	id   uint64
	dead atomic.Bool
}

func (o *obj) ID() uint64    { return o.id }
func (o *obj) Alive() bool   { return !o.dead.Load() }
func (o *obj) Label() string { return fmt.Sprintf("o%d", o.id) }

func newObjects(maxID uint32) []obj {
	objs := make([]obj, maxID+1)
	for i := range objs {
		objs[i].id = uint64(i)
	}
	return objs
}

func resetObjects(objs []obj) {
	for i := range objs {
		objs[i].dead.Store(false)
	}
}
