package monitor_test

import (
	"fmt"
	"strconv"
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// eagerModes is every GC policy × creation strategy × avoidance mode that
// Options.Check accepts for spec on one engine.
func eagerModes(spec *monitor.Spec) []monitor.Options {
	var out []monitor.Options
	for _, gc := range []monitor.GCPolicy{monitor.GCNone, monitor.GCAllDead, monitor.GCCoenable} {
		for _, cr := range []monitor.CreationStrategy{monitor.CreateEnable, monitor.CreateFull} {
			for _, av := range []monitor.AvoidMode{monitor.AvoidOff, monitor.AvoidAudit, monitor.AvoidEnforce} {
				if o := (monitor.Options{GC: gc, Creation: cr, Avoid: av}); o.Check(spec, 1) == nil {
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// ordinal is a stream object fed by ref: ordinal o has ID o+1, as a stream
// fed by ID names it, and dies when killed. A held one panics if asked.
type ordinal struct {
	id         uint64
	dead, held bool
}

func (o *ordinal) ID() uint64    { return o.id }
func (o *ordinal) Label() string { return "o" + strconv.FormatUint(o.id-1, 10) }
func (o *ordinal) Alive() bool {
	if o.held {
		panic("a held record asked its ref whether it is alive")
	}
	return !o.dead
}

// feeds are the three ways one stream of steps enters an engine: refs the
// engine sweeps for after every death and every event (the oracle), IDs,
// and held refs, the last two with every death a FreeIDs.
const (
	feedEager = iota
	feedIDs
	feedHeld
	feeds
)

var feedNames = [feeds]string{"eager-swept refs", "by ID", "held"}

// eagerOracle runs steps through one engine per feed under opts and fails
// unless the positioned engines' verdict sequences equal the eagerly swept
// engine's and every Stats field, PeakLive included, agrees after every
// step and after Flush.
func eagerOracle(t testing.TB, spec *monitor.Spec, opts monitor.Options, steps []conformance.Step) {
	t.Helper()
	var engs [feeds]*monitor.Engine
	var got [feeds][]idVerdict
	for f := range engs {
		o := opts
		o.OnVerdict = func(v monitor.Verdict) { got[f] = append(got[f], idVerdict{v.Sym, v.Cat, v.Key}) }
		eng, err := monitor.New(spec, o)
		if err != nil {
			t.Fatal(err)
		}
		engs[f] = eng
	}
	objs := [feeds]map[int]*ordinal{{}, {}, {}}
	obj := func(f, o int) *ordinal {
		x := objs[f][o]
		if x == nil {
			x = &ordinal{id: uint64(o) + 1, held: f == feedHeld}
			objs[f][o] = x
		}
		return x
	}
	ids := make([]uint64, 0, param.MaxParams)
	vals := make([]heap.Ref, 0, param.MaxParams)
	for n, st := range steps {
		ids, vals = ids[:0], vals[:0]
		for _, o := range st.Objs {
			ids = append(ids, uint64(o)+1)
		}
		if st.Sym < 0 {
			obj(feedEager, st.Objs[0]).dead = true
			monitor.SweepNow(engs[feedEager])
			engs[feedIDs].FreeIDs(ids)
			engs[feedHeld].FreeIDs(ids)
		} else {
			for _, o := range st.Objs {
				vals = append(vals, obj(feedEager, o))
			}
			monitor.Emit(engs[feedEager], st.Sym, vals...)
			monitor.SweepNow(engs[feedEager])
			engs[feedIDs].DispatchIDs(st.Sym, ids)
			vals = vals[:0]
			for _, o := range st.Objs {
				vals = append(vals, obj(feedHeld, o))
			}
			engs[feedHeld].DispatchHeld(st.Sym, param.Of(spec.Events[st.Sym].Params, vals...))
		}
		for f := feedIDs; f < feeds; f++ {
			if a, b := engs[f].Stats(), engs[feedEager].Stats(); a != b {
				t.Fatalf("step %d %v: Stats %s %+v, %s %+v", n, st, feedNames[f], a, feedNames[feedEager], b)
			}
		}
	}
	for _, eng := range engs {
		eng.Flush()
	}
	for f := feedIDs; f < feeds; f++ {
		if a, b := engs[f].Stats(), engs[feedEager].Stats(); a != b {
			t.Fatalf("after Flush: Stats %s %+v, %s %+v", feedNames[f], a, feedNames[feedEager], b)
		}
		if len(got[f]) != len(got[feedEager]) {
			t.Fatalf("%d verdicts %s, %d %s", len(got[f]), feedNames[f], len(got[feedEager]), feedNames[feedEager])
		}
		for i := range got[f] {
			if got[f][i] != got[feedEager][i] {
				t.Fatalf("verdict %d %s %+v, %s %+v", i, feedNames[f], got[f][i], feedNames[feedEager], got[feedEager][i])
			}
		}
	}
}

// TestPositionedDeathsMatchEagerSweeps is the eager-collection oracle: an
// engine that applies each death at its free (by ID, or holding refs it
// never asks) must be the lazy engine swept after every death and every
// event, over PropMix and every built-in property, four random streams
// each, under every configuration Options.Check accepts: the same verdicts
// in the same order, and the same Stats — PeakLive included — after every
// step.
func TestPositionedDeathsMatchEagerSweeps(t *testing.T) {
	for _, spec := range conformance.Specs(t) {
		for _, opts := range eagerModes(spec) {
			creation := map[monitor.CreationStrategy]string{monitor.CreateEnable: "enable", monitor.CreateFull: "full"}[opts.Creation]
			t.Run(fmt.Sprintf("%s/%v/%s/%v", spec.Name, opts.GC, creation, opts.Avoid), func(t *testing.T) {
				for seed := int64(0); seed < 4; seed++ {
					eagerOracle(t, spec, opts, conformance.Random(spec, seed, 300).Steps)
				}
			})
		}
	}
}

// FuzzPositionedDeaths runs the eager-collection oracle over small
// generated streams: the input picks a built-in property (or PropMix), a
// configuration and, byte by byte, the events, the objects they bind and
// the death points.
func FuzzPositionedDeaths(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0x80, 4, 5, 0x81, 6})
	f.Add([]byte{3, 5, 0, 1, 0x82, 2, 3, 0x80, 1, 2, 0x83})
	f.Add([]byte{7, 2, 9, 9, 9, 0x84, 1, 0x85, 3, 3, 0x86, 4})
	specs := conformance.Specs(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 || len(in) > 64 {
			return
		}
		spec := specs[int(in[0])%len(specs)]
		modes := eagerModes(spec)
		opts := modes[int(in[1])%len(modes)]
		eagerOracle(t, spec, opts, fuzzSteps(spec, in[2:]))
	})
}

// fuzzSteps decodes a stream over per-parameter pools of live objects: a
// byte with the high bit set kills the live object its low bits pick, any
// other byte is an event of the symbol it picks, binding each parameter to
// the object of that parameter's pool the next byte picks or, past the
// pool, a fresh one. A killed object is never named again.
func fuzzSteps(spec *monitor.Spec, in []byte) []conformance.Step {
	pools := make([][]int, len(spec.Params))
	next := 0
	var steps []conformance.Step
	for len(in) > 0 {
		b := in[0]
		in = in[1:]
		if b&0x80 != 0 {
			p := pools[int(b&0x7f)%len(pools)]
			if len(p) == 0 {
				continue
			}
			k := int(b&0x7f) % len(p)
			steps = append(steps, conformance.Step{Sym: -1, Objs: []int{p[k]}})
			pools[int(b&0x7f)%len(pools)] = append(p[:k], p[k+1:]...)
			continue
		}
		sym := int(b) % len(spec.Events)
		var objs []int
		for _, x := range spec.Events[sym].Params.Members() {
			pick := len(pools[x])
			if len(in) > 0 {
				pick, in = int(in[0]), in[1:]
			}
			if pick >= len(pools[x]) {
				pools[x] = append(pools[x], next)
				pick = len(pools[x]) - 1
				next++
			}
			objs = append(objs, pools[x][pick])
		}
		steps = append(steps, conformance.Step{Sym: sym, Objs: objs})
	}
	return steps
}

// TestPositionedChurnNoAlloc: an engine fed by ID collects each dead
// iterator at its free — generations of create, next, free, update,
// update over one collection — and, once warm, allocates nothing per
// generation: the θ lists, θ-records, monitors and leaf entries of a dead
// iterator are recycled for the next one. It never sweeps, not even in
// Flush.
func TestPositionedChurnNoAlloc(t *testing.T) {
	if monitor.RaceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, measured = 20_000, 4096
	met := metrics.NewEngineSeries(metrics.NewRegistry(), "churn", "coenable")
	eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	const c = 1
	ci, it, col := []uint64{c, 0}, []uint64{0}, []uint64{c}
	k := uint64(1)
	generation := func() {
		k++
		ci[1], it[0] = k, k
		eng.DispatchIDs(symCreate, ci)
		eng.DispatchIDs(symNext, it)
		eng.FreeIDs(it)
		eng.DispatchIDs(symUpdate, col)
		eng.DispatchIDs(symUpdate, col)
	}
	for k < warm {
		generation()
	}
	if avg := testing.AllocsPerRun(measured, generation); avg != 0 {
		t.Errorf("positioned churn generation allocates %.2f times, want 0", avg)
	}
	st := eng.Stats()
	if st.Collected < warm || st.PeakLive > 2 {
		t.Fatalf("collected %d of %d+ dead iterators' monitors, peak %d live: %+v", st.Collected, warm, st.PeakLive, st)
	}
	if n := met.Sweeps.Value(); n != 0 {
		t.Errorf("a positioned engine swept %d times before Flush", n)
	}
	if n := monitor.HeldRefs(eng); n > 2 {
		t.Errorf("%d object records held, want the collection's (and at most one iterator's)", n)
	}
	eng.Flush()
	if n := met.Sweeps.Value(); n != 0 {
		t.Errorf("a positioned engine's Flush swept %d times", n)
	}
}

// TestPositionedVerdictNoAlloc: an engine fed by ID, once warm, allocates
// nothing per generation that ends in a verdict — create, update, next
// over a fresh collection and iterator, one UnsafeIter match naming both,
// then their free. The verdict names its objects by ID (Key), read from
// the object records; no ref is made for them.
func TestPositionedVerdictNoAlloc(t *testing.T) {
	if monitor.RaceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, measured = 20_000, 4096
	var verdicts uint64
	var last param.Key
	eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable, OnVerdict: func(v monitor.Verdict) {
		verdicts++
		last = v.Key
	}})
	if err != nil {
		t.Fatal(err)
	}
	ci, it, col := []uint64{0, 0}, []uint64{0}, []uint64{0}
	k := uint64(0)
	generation := func() {
		k += 2
		ci[0], ci[1], col[0], it[0] = k, k+1, k, k+1
		eng.DispatchIDs(symCreate, ci)
		eng.DispatchIDs(symUpdate, col)
		eng.DispatchIDs(symNext, it)
		eng.FreeIDs(ci)
	}
	for k < warm {
		generation()
	}
	if avg := testing.AllocsPerRun(measured, generation); avg != 0 {
		t.Errorf("positioned verdict generation allocates %.2f times, want 0", avg)
	}
	if want := k / 2; verdicts != want {
		t.Fatalf("%d verdicts over %d generations, want one each", verdicts, want)
	}
	if want := param.SetOf(0, 1); last.Mask != want || last.IDs[0] != k || last.IDs[1] != k+1 {
		t.Errorf("last verdict names %v, want <p0=r%d, p1=r%d>", last, k, k+1)
	}
	if n := monitor.HeldRefs(eng); n != 0 {
		t.Errorf("%d object records held after every object's free, want 0", n)
	}
}

// TestRegistryChurnNearCapacity: an engine whose live monitors of one
// domain stay just below a power of two — each generation frees one
// iterator, whose monitor dies, updates the collection, whose leaf lets go
// of that monitor, and creates one — compacts that domain's
// registry about once per half a capacity of inserts, not at every insert,
// and the registry stays within a small multiple of the live monitors. It
// holds for an engine fed by ID, told each death by FreeIDs, and for a lazy
// engine fed refs, which finds the deaths in its sweeps and so counts its
// collected monitors after Flush.
func TestRegistryChurnNearCapacity(t *testing.T) {
	const live, generations = 127, 20_000
	for _, lazy := range []bool{false, true} {
		t.Run(map[bool]string{false: "by ID", true: "lazy"}[lazy], func(t *testing.T) {
			eng, err := monitor.New(unsafeIterSpec(t), monitor.Options{GC: monitor.GCCoenable})
			if err != nil {
				t.Fatal(err)
			}
			const c = 1
			ci, it, col := []uint64{c, 0}, []uint64{0}, []uint64{c}
			h := heap.New()
			refs := map[uint64]*heap.Object{}
			ref := func(i uint64) *heap.Object {
				if refs[i] == nil {
					refs[i] = h.Alloc("")
				}
				return refs[i]
			}
			create := func(i uint64) {
				if lazy {
					monitor.Emit(eng, symCreate, ref(c), ref(i))
					return
				}
				ci[1] = i
				eng.DispatchIDs(symCreate, ci)
			}
			free := func(i uint64) {
				if lazy {
					h.Free(ref(i))
					delete(refs, i)
					return
				}
				it[0] = i
				eng.FreeIDs(it)
			}
			update := func() {
				if lazy {
					monitor.Emit(eng, symUpdate, ref(c))
					return
				}
				eng.DispatchIDs(symUpdate, col)
			}
			for i := uint64(2); i < 2+live; i++ {
				create(i)
			}
			R := param.SetOf(0, 1)
			compactions, maxCap := 0, 0
			prev, _ := monitor.RegistryShape(eng, R)
			for g := uint64(0); g < generations; g++ {
				free(2 + g)
				update()
				create(2 + live + g)
				n, c := monitor.RegistryShape(eng, R)
				if n <= prev {
					compactions++
				}
				prev, maxCap = n, max(maxCap, c)
			}
			t.Logf("%d registry compactions, at most %d entries", compactions, maxCap)
			if lazy {
				eng.Flush()
			}
			if st := eng.Stats(); st.Collected < generations {
				t.Fatalf("collected %d of %d dead iterators' monitors: %+v", st.Collected, generations, st)
			}
			if compactions > generations/32 {
				t.Errorf("%d registry compactions in %d inserts near capacity, want at most %d", compactions, generations, generations/32)
			}
			if maxCap > 8*live {
				t.Errorf("registry grew to %d entries for %d live monitors", maxCap, live)
			}
		})
	}
}
