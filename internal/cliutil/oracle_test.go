package cliutil_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rvgo/internal/cliutil"
	"rvgo/internal/dacapo"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
	"rvgo/internal/trace"
)

// recDisp taps dispatched events into the trace writer before the
// engine — the adapter's surface, with recording.
type recDisp struct {
	rt  monitor.Runtime
	w   *trace.Writer
	err error
}

func (r *recDisp) Spec() *monitor.Spec { return r.rt.Spec() }

func (r *recDisp) Dispatch(sym int, theta param.Instance) {
	var buf [param.MaxParams]uint64
	if err := r.w.EventIDs(sym, theta.Key().AppendIDs(buf[:0])); err != nil && r.err == nil {
		r.err = err
	}
	r.rt.Dispatch(sym, theta)
}

func oracleKey(v monitor.Verdict) string {
	return fmt.Sprintf("%d/%s/%v/%v", v.Sym, v.Cat, v.Key.Mask, v.Key.IDs)
}

// onlineVerdict is one verdict of an online run: its oracleKey and the
// binding it was reported on.
type onlineVerdict struct {
	key  string
	inst param.Key
}

// onlineOracle drives the recorded workload through a sequential engine
// (optionally recording the monitored stream) and returns settled stats
// and the verdicts sorted by key. Every call replays onto a fresh heap, so
// object IDs — and hence verdict keys — are identical across calls and
// equal to the recorded IDs.
func onlineOracle(t *testing.T, wl *dacapo.Trace, prop string, gc monitor.GCPolicy, w *trace.Writer) (monitor.Stats, []onlineVerdict) {
	t.Helper()
	spec, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []onlineVerdict
	eng, err := monitor.New(spec, monitor.Options{
		GC:       gc,
		Creation: monitor.CreateEnable,
		OnVerdict: func(v monitor.Verdict) {
			verdicts = append(verdicts, onlineVerdict{oracleKey(v), v.Inst.Key()})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rec := &recDisp{rt: eng, w: w}
	var em monitor.Dispatcher = eng
	if w != nil {
		em = rec
	}
	sink, err := dacapo.Adapt(prop, em)
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	h.SetFreeHook(func(o *heap.Object) {
		eng.Free(o)
		if w != nil {
			if werr := w.FreeIDs([]uint64{o.ID()}); werr != nil && rec.err == nil {
				rec.err = werr
			}
		}
	})
	wl.Replay(h, sink)
	eng.Flush()
	if rec.err != nil {
		t.Fatal(rec.err)
	}
	sort.Slice(verdicts, func(a, b int) bool { return verdicts[a].key < verdicts[b].key })
	return eng.Stats(), verdicts
}

// keys renders verdicts as their sorted oracle keys.
func keys(vs []onlineVerdict) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.key
	}
	return out
}

// settled is the part of Stats a parallel replay reproduces exactly:
// everything but PeakLive, which sums the per-shard peaks.
func settled(s monitor.Stats) monitor.Stats {
	s.PeakLive = 0
	return s
}

// recordOracle records bench's workload at scale, monitored for prop under
// coenable GC, into a fresh trace with small segments (so parallel replay
// has several to fan out over and the pivot index several to skim). It
// returns the workload, the trace path and the recording pass's results.
func recordOracle(t *testing.T, bench string, scale float64, prop string) (*dacapo.Trace, string, monitor.Stats, []onlineVerdict) {
	t.Helper()
	p, ok := dacapo.Get(bench)
	if !ok {
		t.Fatalf("no %s profile", bench)
	}
	wl, err := p.Record(scale)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+".rvt")
	w, err := trace.CreateForSpec(path, spec, trace.WriterOptions{SegmentRecords: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stats, verdicts := onlineOracle(t, wl, prop, monitor.GCCoenable, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return wl, path, stats, verdicts
}

// TestVerdictLines pins the rvquery -verdicts line shape: event name,
// category, formatted instance.
func TestVerdictLines(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := spec.Symbol("next")
	if !ok {
		t.Fatal("HasNext has no next event")
	}
	h := heap.New()
	it := h.Alloc("it")
	var lines []string
	fn := cliutil.VerdictLines(spec, func(s string) { lines = append(lines, s) })
	// A replay names its objects by ID: the verdict carries Key alone.
	v := monitor.Verdict{Spec: spec, Sym: sym, Key: param.Of(spec.Events[sym].Params, it).Key()}
	v.Cat = "error"
	fn(v)
	if len(lines) != 1 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, want := range []string{"next", "error", fmt.Sprintf("r%d", it.ID())} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("line %q lacks %q", lines[0], want)
		}
	}
}

// TestRetroOracleDaCapo is the end-to-end oracle for the retroactive
// path: a DaCapo workload's monitored stream is recorded once through
// the segment store, then replayed through the rvquery path
// (RunRetroQuery) sequentially and on 4 shards, under every
// monitor GC policy — verdicts and settled counters must equal the
// online run's exactly. Two legs follow under coenable GC, each at ×1
// and ×4: a pivot-selective query, which must reproduce exactly its
// pivot's online verdicts while the pivot index skims segments, and a
// profile-guided enforce replay; each must settle the same at ×1 and ×4.
func TestRetroOracleDaCapo(t *testing.T) {
	const prop = "UnsafeIter"
	spec, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	wl, path, recStats, recVerdicts := recordOracle(t, "avrora", 0.05, prop)

	for _, gc := range []monitor.GCPolicy{monitor.GCCoenable, monitor.GCAllDead, monitor.GCNone} {
		stats, verdicts := onlineOracle(t, wl, prop, gc, nil)
		if gc == monitor.GCCoenable && stats != recStats {
			t.Fatalf("gc %v: recording pass diverged from reference: %+v vs %+v", gc, recStats, stats)
		}
		for _, workers := range []int{1, 4} {
			var got []string
			q := cliutil.RetroQuery{
				GC:        gc,
				Workers:   workers,
				OnVerdict: func(v monitor.Verdict) { got = append(got, oracleKey(v)) },
			}
			qr, err := cliutil.RunRetroQuery(path, spec, q)
			if err != nil {
				t.Fatalf("gc %v ×%d: %v", gc, workers, err)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(keys(verdicts)) {
				t.Errorf("gc %v ×%d: verdicts diverged:\n  online %v\n  retro  %v", gc, workers, verdicts, got)
			}
			if settled(qr.Stats) != settled(stats) {
				t.Errorf("gc %v ×%d: settled counters diverge:\n  online %+v\n  retro  %+v", gc, workers, stats, qr.Stats)
			}
		}
	}

	t.Run("selective", func(t *testing.T) {
		retroSelective(t, path, spec, recVerdicts)
		// avrora raises no UnsafeIter verdict at this scale; bloat does, so
		// there the pivot's verdict identity is not vacuous.
		_, bloat, _, verdicts := recordOracle(t, "bloat", 0.02, prop)
		if len(verdicts) == 0 {
			t.Fatal("bloat raised no UnsafeIter verdict")
		}
		retroSelective(t, bloat, spec, verdicts)
	})
	t.Run("profile-enforce", func(t *testing.T) { retroProfileEnforce(t, path, spec, recVerdicts) })
}

// TestRetroBroadcastCount: a full replay counts as broadcast exactly the
// events that do not bind the query pivot, and skims no segment,
// sequentially and on 4 shards. UnsafeIter's pivot is its collection c
// (update(c) may begin a match, so every creation event binds c): its
// broadcast events are the next(i) records.
func TestRetroBroadcastCount(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	_, path, _, _ := recordOracle(t, "avrora", 0.05, "UnsafeIter")
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	names := r.SymbolNames()
	var events, nexts uint64
	if err := r.Scan(func(x trace.Record) error {
		if !x.Free {
			events++
			if names[x.Sym] == "next" {
				nexts++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if nexts == 0 || nexts == events || r.Segments() < 2 {
		t.Fatalf("%d next of %d events in %d segments: the count would check nothing", nexts, events, r.Segments())
	}
	for _, workers := range []int{1, 4} {
		qr, err := cliutil.RunRetroQuery(path, spec, cliutil.RetroQuery{GC: monitor.GCCoenable, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rs := qr.Replay; rs.Events != events || rs.Broadcast != nexts || rs.SegmentsSkimmed != 0 {
			t.Errorf("×%d: replayed %d events, %d broadcast, %d segments skimmed; want %d, %d, 0",
				workers, rs.Events, rs.Broadcast, rs.SegmentsSkimmed, events, nexts)
		}
	}
}

// TestRetroParallelRefusals: a parallel query under full creation would
// over-count Created (the shards' monitor populations overlap), and a
// creation profile is engine-local. Both are refused with
// monitor.Options.Check's message for the requested worker count, and both
// run sequentially.
func TestRetroParallelRefusals(t *testing.T) {
	const prop = "UnsafeIter"
	spec, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	_, path, _, _ := recordOracle(t, "avrora", 0.01, prop)
	for name, q := range map[string]cliutil.RetroQuery{
		"full":    {GC: monitor.GCNone, Creation: monitor.CreateFull, Workers: 4},
		"profile": {GC: monitor.GCCoenable, Profile: monitor.NewCreationProfile(spec), Workers: 4},
	} {
		want := monitor.Options{GC: q.GC, Creation: q.Creation, Profile: q.Profile}.Check(spec, q.Workers)
		if _, err := cliutil.RunRetroQuery(path, spec, q); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%s ×%d: %v, want Check's %v", name, q.Workers, err, want)
		}
		q.Workers = 1
		if _, err := cliutil.RunRetroQuery(path, spec, q); err != nil {
			t.Errorf("%s ×1: %v", name, err)
		}
	}
}

// retroSelective replays one slice out of the recorded trace: the
// verdict-bearing pivot object with the smallest segment footprint (the
// identity check stays non-vacuous and the index has segments to skip),
// falling back to the narrowest slice in the trace. The query, run
// sequentially and on 4 shards, must report exactly that pivot's online
// verdicts while skipping the rest of the trace — UnsafeIter's update(c)
// is a broadcast event, so the slice is not just the pivot's own records —
// and the two runs must settle the same counters.
func retroSelective(t *testing.T, path string, spec *monitor.Spec, online []onlineVerdict) {
	piv, err := shard.Pivot(spec)
	if err != nil || piv < 0 {
		t.Fatalf("%s has no pivot to index by: %v", spec.Name, err)
	}
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	footprint := r.PivotSegments()
	var pivotID uint64
	best := 0
	for _, v := range online {
		if v.inst.Mask.Has(piv) {
			if n := footprint[v.inst.IDs[piv]]; pivotID == 0 || n < best {
				pivotID, best = v.inst.IDs[piv], n
			}
		}
	}
	if pivotID == 0 {
		for id, n := range footprint {
			if pivotID == 0 || n < best || (n == best && id < pivotID) {
				pivotID, best = id, n
			}
		}
	}
	var want []string
	for _, v := range online {
		if v.inst.Mask.Has(piv) && v.inst.IDs[piv] == pivotID {
			want = append(want, v.key)
		}
	}
	var seq monitor.Stats
	for _, workers := range []int{1, 4} {
		var got []string
		qr, err := cliutil.RunRetroQuery(path, spec, cliutil.RetroQuery{
			GC:        monitor.GCCoenable,
			Workers:   workers,
			Pivots:    []uint64{pivotID},
			OnVerdict: func(v monitor.Verdict) { got = append(got, oracleKey(v)) },
		})
		if err != nil {
			t.Fatalf("×%d: %v", workers, err)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("pivot %d ×%d: verdicts diverged:\n  online %v\n  retro  %v", pivotID, workers, want, got)
		}
		if qr.Replay.SegmentsSkimmed == 0 || qr.Replay.EventsSkipped == 0 {
			t.Errorf("pivot %d ×%d: the index skipped nothing: %+v", pivotID, workers, qr.Replay)
		}
		if workers == 1 {
			seq = qr.Stats
		} else if settled(qr.Stats) != settled(seq) {
			t.Errorf("pivot %d ×%d settled counters diverge from ×1:\n  ×1 %+v\n  ×%d %+v", pivotID, workers, seq, workers, qr.Stats)
		}
	}
}

// retroProfileEnforce profiles the recorded trace per creation site,
// synthesizes guards from the profile and enforces them over the same
// trace sequentially and with 4 workers: both replays must keep every
// online verdict and settle the same counters, Avoided included.
func retroProfileEnforce(t *testing.T, path string, spec *monitor.Spec, online []onlineVerdict) {
	prof := monitor.NewCreationProfile(spec)
	if _, err := cliutil.RunRetroQuery(path, spec, cliutil.RetroQuery{GC: monitor.GCCoenable, Workers: 1, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	guards := prof.Guards()
	var seq monitor.Stats
	for _, workers := range []int{1, 4} {
		var got []string
		qr, err := cliutil.RunRetroQuery(path, spec, cliutil.RetroQuery{
			GC:            monitor.GCCoenable,
			Avoid:         monitor.AvoidEnforce,
			ProfileGuards: guards,
			Workers:       workers,
			OnVerdict:     func(v monitor.Verdict) { got = append(got, oracleKey(v)) },
		})
		if err != nil {
			t.Fatalf("×%d: %v", workers, err)
		}
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(keys(online)) {
			t.Errorf("×%d: guarded verdicts diverged from the online run", workers)
		}
		if workers == 1 {
			seq = qr.Stats
			if seq.Avoided == 0 {
				t.Fatalf("profile guards avoided nothing: %+v", seq)
			}
		} else if settled(qr.Stats) != settled(seq) {
			t.Errorf("×%d settled counters diverge from ×1:\n  ×1 %+v\n  ×%d %+v", workers, seq, workers, qr.Stats)
		}
	}
}
