package conformance

import (
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	ispec "rvgo/internal/spec"
)

// Step is one step of a stream over object ordinals: an event (Sym ≥ 0)
// binding Objs in the event's parameter order, or (Sym < 0) the death of
// ordinal Objs[0]. A death retires its ordinal: no later step names it.
type Step struct {
	Sym  int
	Objs []int
}

// Stream is one input every backend replays. A stream of Steps can be fed
// by ref or by ID; a workload stream (a DaCapo run) drives its runtime by
// ref itself.
type Stream struct {
	Name  string
	Spec  *monitor.Spec
	Steps []Step

	// workload drives rt by ref when the stream has no Steps, handing
	// each death to free (nil: the object dies unannounced).
	workload func(rt monitor.Runtime, free func(*heap.Object)) error
	// lateKill kills each object freed by ref only after the last step,
	// not the instant its Free returns.
	lateKill bool
	// lazy lets the workload's objects die without a Free (see Lazy).
	lazy bool
	// collects is the weakest GC policy under which the reference must
	// collect a monitor; GCNone asks nothing.
	collects monitor.GCPolicy
	// verdicts requires the reference to deliver a verdict.
	verdicts bool
	// ref, when set, is the stream the reference runs instead.
	ref *Stream
	// renumber keys the workload's objects by order of first mention.
	renumber bool
}

// Against returns s with its reference run driven by ref: the backends
// replay s and are held to the sequential engine's run of ref (a live
// workload against the replay of its recording, say). Both sides' objects
// are renumbered in order of first mention, so that a live run and the
// replay of its recording (which allocates each object where it is first
// named) key their slices alike.
func (s Stream) Against(ref Stream) Stream {
	ref.renumber, s.renumber = true, true
	s.ref = &ref
	return s
}

// Exercising returns the random stream s with its reference required to
// deliver a verdict under every GC policy and to collect a monitor under
// coenable GC: a generator or seed change must not turn the stream into
// one that checks nothing.
func (s Stream) Exercising() Stream {
	s.verdicts, s.collects = true, monitor.GCCoenable
	return s
}

// Lazy returns the workload stream s with no death announced: each object
// dies without a Free, and the runtime finds the death by asking the ref —
// the lazy liveness internal/bench still hands its engines.
func (s Stream) Lazy() Stream {
	s.lazy = true
	s.Name += "/lazy"
	return s
}

// Random generates a random stream of n steps for spec from seed:
// per-parameter pools of live ordinals, events over live objects only,
// births, and deaths that retire an ordinal for good, as a real program's
// do. A seed always yields the same steps.
func Random(spec *monitor.Spec, seed int64, n int) Stream {
	rng := rand.New(rand.NewSource(seed))
	nParams := len(spec.Params)
	pools := make([][]int, nParams)
	next := 0
	alloc := func(p int) {
		pools[p] = append(pools[p], next)
		next++
	}
	for p := 0; p < nParams; p++ {
		alloc(p)
		alloc(p)
	}
	var steps []Step
	for len(steps) < n {
		switch r := rng.Float64(); {
		case r < 0.08: // a parameter object dies
			p := rng.Intn(nParams)
			if len(pools[p]) <= 1 {
				continue
			}
			i := rng.Intn(len(pools[p]))
			o := pools[p][i]
			pools[p] = append(pools[p][:i], pools[p][i+1:]...)
			steps = append(steps, Step{Sym: -1, Objs: []int{o}})
		case r < 0.2: // a fresh object appears
			alloc(rng.Intn(nParams))
		default:
			sym := rng.Intn(len(spec.Events))
			ps := spec.Events[sym].Params.Members()
			objs := make([]int, len(ps))
			for k, p := range ps {
				objs[k] = pools[p][rng.Intn(len(pools[p]))]
			}
			steps = append(steps, Step{Sym: sym, Objs: objs})
		}
	}
	return Stream{Name: spec.Name + "/seed" + strconv.FormatInt(seed, 10), Spec: spec, Steps: steps}
}

// Specs is the spec set of the random-stream oracles: every property in
// the library, after PropMix, whose tick event binds no parameter (so a
// sharded backend must broadcast it to every lane's ⊥-slice).
func Specs(t testing.TB) []*monitor.Spec {
	t.Helper()
	specs := append([]*monitor.Spec(nil), compile(t, propMix))
	for _, name := range props.Names() {
		specs = append(specs, Prop(t, name))
	}
	return specs
}

const propMix = `PropMix(f) {
    event open(f)
    event tick()
    event close(f)
    ere: open (tick | close)* close
    @match {}
}`

// compile compiles .rv source defining one property.
func compile(t testing.TB, src string) *monitor.Spec {
	t.Helper()
	spec, err := ispec.CompileOne(src)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Prop builds a library property.
func Prop(t testing.TB, name string) *monitor.Spec {
	t.Helper()
	spec, err := props.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// Live is the DaCapo workload bench run at scale with prop's pointcuts
// attached: events and deaths reach the runtime as the workload makes
// them, each death positioned by the heap's free hook (unless Lazy). The
// runtime sees the workload's own objects.
func Live(t testing.TB, bench string, scale float64, prop string) Stream {
	t.Helper()
	p, ok := dacapo.Get(bench)
	if !ok {
		t.Fatalf("no DaCapo profile %q", bench)
	}
	return Stream{
		Name:     bench,
		Spec:     Prop(t, prop),
		collects: monitor.GCAllDead,
		workload: func(rt monitor.Runtime, free func(*heap.Object)) error {
			drt := dacapo.NewRuntime()
			sink, err := dacapo.Adapt(prop, rt)
			if err != nil {
				return err
			}
			drt.AddSink(sink)
			drt.Heap.SetFreeHook(free)
			return p.Run(drt, scale)
		},
	}
}

// Recorded records the DaCapo workload bench once at scale and returns its
// replay under each property, named bench/prop.
func Recorded(t testing.TB, bench string, scale float64, propNames ...string) []Stream {
	t.Helper()
	p, ok := dacapo.Get(bench)
	if !ok {
		t.Fatalf("no DaCapo profile %q", bench)
	}
	tr, err := p.Record(scale)
	if err != nil {
		t.Fatal(err)
	}
	var out []Stream
	for _, prop := range propNames {
		out = append(out, Stream{
			Name: bench + "/" + prop,
			Spec: Prop(t, prop),
			workload: func(rt monitor.Runtime, free func(*heap.Object)) error {
				sink, err := dacapo.Adapt(prop, rt)
				if err != nil {
					return err
				}
				h := heap.New()
				h.SetFreeHook(free)
				tr.Replay(h, sink)
				return nil
			},
		})
	}
	return out
}

// FreeStreams are the two death-positioning scripts over UnsafeIter: two
// iterators over one collection, the first freed after an update but
// before it is ever advanced (its slice must stay verdict-free and, under
// coenable GC, its monitor must be collected), the second advanced after
// an update (the UNSAFEITER match). "Free" kills each object the instant
// Free returns; "FreeAsync" kills it only after the last step, as a death
// signal that trails its Free may: every backend that positions deaths
// must take the Free alone as the death, and a lazy one finds the death
// late, as its reference does.
func FreeStreams(t testing.TB) []Stream {
	t.Helper()
	spec := Prop(t, "UnsafeIter")
	sym := func(name string) int {
		s, ok := spec.Symbol(name)
		if !ok {
			t.Fatalf("UnsafeIter has no event %q", name)
		}
		return s
	}
	create, update, next := sym("create"), sym("update"), sym("next")
	const c, i1, i2 = 0, 1, 2
	steps := []Step{
		{create, []int{c, i1}},
		{update, []int{c}},
		{-1, []int{i1}},
		{create, []int{c, i2}},
		{update, []int{c}},
		{next, []int{i2}},
	}
	free := Stream{Name: "Free", Spec: spec, Steps: steps, collects: monitor.GCCoenable}
	late := free
	late.Name, late.lateKill = "FreeAsync", true
	return []Stream{free, late}
}

// LargeFree is UnsafeIter's create(c, i) for 49 iterators, then the deaths
// of c, the iterators and 399 950 objects no event named, with no event
// between them: more deaths at one stream position than a free frame or a
// trace record may name. The unnamed objects' IDs run from 1<<40 upward,
// each a wide varint on the wire.
func LargeFree(t testing.TB) Stream {
	t.Helper()
	spec := Prop(t, "UnsafeIter")
	create, _ := spec.Symbol("create")
	const named, objects, far = 50, 400_000, 1<<40 - 1 // far: the ordinal of ID 1<<40
	ords := make([]int, objects)
	for o := range ords {
		ords[o] = o
		if o >= named {
			ords[o] = far + o - named
		}
	}
	var steps []Step
	for o := 1; o < named; o++ {
		steps = append(steps, Step{create, []int{0, o}})
	}
	for o := range ords {
		steps = append(steps, Step{-1, ords[o : o+1]})
	}
	return Stream{Name: "LargeFree", Spec: spec, Steps: steps}
}

// feed drives s into rt. Ordinal o is object ID o+1 either way: by ID it
// names the object outright, by ref it is an object with that ID, made at
// its first mention and forgotten at its death. By ref, each death is Free
// then the kill, at once or (lateKill) after the last step.
func (s Stream) feed(t testing.TB, rt monitor.Runtime, byID bool) {
	t.Helper()
	if s.lazy && s.workload == nil {
		t.Fatalf("%s: only a workload stream runs lazy", s.Name)
	}
	if s.workload != nil {
		if byID {
			t.Fatalf("%s: a workload stream is fed by ref only", s.Name)
		}
		if s.renumber {
			rt = &firstMention{Runtime: rt, objs: map[uint64]*renumbered{}}
		}
		var free func(*heap.Object)
		if !s.lazy {
			free = func(o *heap.Object) { rt.Free(o) }
		}
		if err := s.workload(rt, free); err != nil {
			t.Fatal(err)
		}
		return
	}
	if byID {
		idr, ok := rt.(monitor.IDRuntime)
		if !ok {
			t.Fatalf("%T takes no IDs", rt)
		}
		ids := make([]uint64, 0, param.MaxParams)
		for _, st := range s.Steps {
			ids = ids[:0]
			for _, o := range st.Objs {
				ids = append(ids, uint64(o)+1)
			}
			if st.Sym < 0 {
				idr.FreeIDs(ids)
			} else {
				idr.DispatchIDs(st.Sym, ids)
			}
		}
		return
	}
	live := map[int]*object{} // the objects named so far and not yet dead
	vals := make([]heap.Ref, 0, param.MaxParams)
	for _, st := range s.Steps {
		if st.Sym < 0 {
			o := live[st.Objs[0]]
			if o == nil { // first named by its death
				o = &object{id: uint64(st.Objs[0]) + 1}
			}
			delete(live, st.Objs[0])
			rt.Free(o)
			if s.lateKill {
				defer o.kill()
			} else {
				o.kill()
			}
			continue
		}
		vals = vals[:0]
		for _, o := range st.Objs {
			if live[o] == nil {
				live[o] = &object{id: uint64(o) + 1}
			}
			vals = append(vals, live[o])
		}
		monitor.Emit(rt, st.Sym, vals...)
	}
}

// object is a stream object fed by ref: a caller-owned ref with a bare
// death flag, killed the instant its Free returns.
type object struct {
	id   uint64
	dead atomic.Bool
}

func (o *object) ID() uint64    { return o.id }
func (o *object) Alive() bool   { return !o.dead.Load() }
func (o *object) Label() string { return "o" + strconv.FormatUint(o.id-1, 10) }
func (o *object) kill()         { o.dead.Store(true) }

// firstMention renumbers a workload's objects in order of first mention
// (see Against). A renumbered object is the workload's own under another
// ID: it dies when the workload's object does.
type firstMention struct {
	monitor.Runtime
	objs map[uint64]*renumbered
}

type renumbered struct {
	heap.Ref
	id uint64
}

func (r *renumbered) ID() uint64 { return r.id }

func (r *firstMention) obj(ref heap.Ref) heap.Ref {
	o, ok := r.objs[ref.ID()]
	if !ok {
		o = &renumbered{Ref: ref, id: uint64(len(r.objs)) + 1}
		r.objs[ref.ID()] = o
	}
	return o
}

func (r *firstMention) Dispatch(sym int, theta param.Instance) {
	r.Runtime.Dispatch(sym, theta.Map(func(_ int, v heap.Ref) heap.Ref { return r.obj(v) }))
}

func (r *firstMention) Free(ref heap.Ref) { r.Runtime.Free(r.obj(ref)) }
