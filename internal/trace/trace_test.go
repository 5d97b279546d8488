package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"rvgo/internal/ere"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
	"rvgo/internal/shard"
)

// tref is a test parameter object with a chosen ID, so the online run and
// the replayed run operate on identical object identities.
type tref struct {
	id   uint64
	dead atomic.Bool
}

func (r *tref) ID() uint64    { return r.id }
func (r *tref) Alive() bool   { return !r.dead.Load() }
func (r *tref) Label() string { return fmt.Sprintf("r%d", r.id) }

// step is one element of a generated stream: a parametric event (sym ≥ 0)
// or an object-death point (sym < 0).
type step struct {
	sym int
	ids []uint64
}

// genUnsafeIter builds a deterministic UnsafeIter stream: colls
// collections, each iterated by iters iterators, alternating safe slices
// with slices that update the collection mid-iteration (a goal verdict).
// Iterators die after their last event; collections die at the end.
func genUnsafeIter(t testing.TB, spec *monitor.Spec, colls, iters int) []step {
	create := sym(t, spec, "create")
	update := sym(t, spec, "update")
	next := sym(t, spec, "next")
	var steps []step
	id := uint64(0)
	newID := func() uint64 { id++; return id }
	collIDs := make([]uint64, colls)
	for c := range collIDs {
		collIDs[c] = newID()
	}
	for k := 0; k < iters; k++ {
		for _, cid := range collIDs {
			iid := newID()
			steps = append(steps, step{sym: create, ids: []uint64{cid, iid}})
			steps = append(steps, step{sym: next, ids: []uint64{iid}})
			if k%2 == 1 {
				// Unsafe slice: update between two nexts.
				steps = append(steps, step{sym: update, ids: []uint64{cid}})
				steps = append(steps, step{sym: next, ids: []uint64{iid}})
			}
			steps = append(steps, step{sym: -1, ids: []uint64{iid}})
		}
	}
	for _, cid := range collIDs {
		steps = append(steps, step{sym: -1, ids: []uint64{cid}})
	}
	return steps
}

// genHasNext builds a HasNext stream: every event binds the iterator (the
// spec's pivot), so segments carry no broadcast events and the pivot index
// can skim.
func genHasNext(t testing.TB, spec *monitor.Spec, iters, uses int) []step {
	hnT := sym(t, spec, "hasnexttrue")
	next := sym(t, spec, "next")
	var steps []step
	for i := 0; i < iters; i++ {
		iid := uint64(i + 1)
		for u := 0; u < uses; u++ {
			if i%3 == 2 && u == uses-1 {
				// Violating slice: next without hasNext.
				steps = append(steps, step{sym: next, ids: []uint64{iid}})
				continue
			}
			steps = append(steps, step{sym: hnT, ids: []uint64{iid}})
			steps = append(steps, step{sym: next, ids: []uint64{iid}})
		}
		steps = append(steps, step{sym: -1, ids: []uint64{iid}})
	}
	return steps
}

func sym(t testing.TB, spec *monitor.Spec, name string) int {
	t.Helper()
	s, ok := spec.Symbol(name)
	if !ok {
		t.Fatalf("spec %q has no event %q", spec.Name, name)
	}
	return s
}

func vkey(v monitor.Verdict) string {
	return fmt.Sprintf("%d/%s/%v/%v", v.Sym, v.Cat, v.Key.Mask, v.Key.IDs)
}

// runOnline feeds the stream to a fresh sequential engine the way a
// server session does — by ID, each death a FreeIDs at its position — and
// returns its settled stats and sorted verdicts.
func runOnline(t testing.TB, spec *monitor.Spec, steps []step, opts monitor.Options) (monitor.Stats, []string) {
	t.Helper()
	var verdicts []string
	opts.OnVerdict = func(v monitor.Verdict) { verdicts = append(verdicts, vkey(v)) }
	eng, err := monitor.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if st.sym < 0 {
			eng.FreeIDs(st.ids)
		} else {
			eng.DispatchIDs(st.sym, st.ids)
		}
	}
	eng.Flush()
	stats := eng.Stats()
	eng.Close()
	sort.Strings(verdicts)
	return stats, verdicts
}

// record writes the stream to a trace file with the given rotation.
func record(t testing.TB, path string, spec *monitor.Spec, steps []step, segRecords int) {
	t.Helper()
	w, err := CreateForSpec(path, spec, WriterOptions{SegmentRecords: segRecords})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if st.sym < 0 {
			err = w.FreeIDs(st.ids)
		} else {
			err = w.EventIDs(st.sym, st.ids)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replaySeq replays a trace through a fresh sequential engine.
func replaySeq(t testing.TB, path string, spec *monitor.Spec, opts monitor.Options, ro ReplayOptions) (monitor.Stats, []string, ReplayStats) {
	t.Helper()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []string
	opts.OnVerdict = func(v monitor.Verdict) { verdicts = append(verdicts, vkey(v)) }
	eng, err := monitor.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := r.Replay(eng, ro)
	if err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	stats := eng.Stats()
	eng.Close()
	sort.Strings(verdicts)
	return stats, verdicts, rs
}

func eqStats(t *testing.T, what string, got, want monitor.Stats) {
	t.Helper()
	if got != want {
		t.Errorf("%s: stats\n got %+v\nwant %+v", what, got, want)
	}
}

func eqVerdicts(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: verdict[%d] = %s, want %s", what, i, got[i], want[i])
		}
	}
}

var gcPolicies = []monitor.GCPolicy{monitor.GCCoenable, monitor.GCAllDead, monitor.GCNone}

// TestReplayOracle: a recorded trace replayed through a fresh sequential
// engine yields stats and per-slice verdicts bit-identical to the online
// run, for every GC policy and across segment rotations.
func TestReplayOracle(t *testing.T) {
	for _, prop := range []string{"UnsafeIter", "HasNext"} {
		spec, err := props.Build(prop)
		if err != nil {
			t.Fatal(err)
		}
		var steps []step
		if prop == "UnsafeIter" {
			steps = genUnsafeIter(t, spec, 7, 24)
		} else {
			steps = genHasNext(t, spec, 60, 8)
		}
		for _, gc := range gcPolicies {
			for _, segRecords := range []int{50, 1 << 16} {
				name := fmt.Sprintf("%s/%s/seg%d", prop, gc, segRecords)
				t.Run(name, func(t *testing.T) {
					opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable}
					wantStats, wantVerdicts := runOnline(t, spec, steps, opts)
					path := filepath.Join(t.TempDir(), "t.rvt")
					record(t, path, spec, steps, segRecords)
					gotStats, gotVerdicts, _ := replaySeq(t, path, spec, opts, ReplayOptions{})
					eqStats(t, name, gotStats, wantStats)
					eqVerdicts(t, name, gotVerdicts, wantVerdicts)
				})
			}
		}
	}
}

// TestParallelReplayOracle: a replay into the sharded runtime settles to
// the online run's counters and verdict set. PeakLive sums per-shard
// peaks, so it is compared only at one shard.
func TestParallelReplayOracle(t *testing.T) {
	for _, prop := range []string{"UnsafeIter", "HasNext"} {
		spec, err := props.Build(prop)
		if err != nil {
			t.Fatal(err)
		}
		var steps []step
		if prop == "UnsafeIter" {
			steps = genUnsafeIter(t, spec, 5, 20)
		} else {
			steps = genHasNext(t, spec, 64, 6)
		}
		for _, gc := range gcPolicies {
			opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable}
			wantStats, wantVerdicts := runOnline(t, spec, steps, opts)
			path := filepath.Join(t.TempDir(), "t.rvt")
			record(t, path, spec, steps, 64)
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/w%d", prop, gc, workers)
				t.Run(name, func(t *testing.T) {
					var verdicts []string
					got, err := replaySharded(r, spec, monitor.Options{GC: gc, Creation: monitor.CreateEnable,
						OnVerdict: func(v monitor.Verdict) { verdicts = append(verdicts, vkey(v)) }}, workers)
					if err != nil {
						t.Fatal(err)
					}
					sort.Strings(verdicts)
					eqVerdicts(t, name, verdicts, wantVerdicts)
					if workers == 1 {
						eqStats(t, name, got, wantStats)
						return
					}
					// PeakLive sums per-shard peaks: an upper bound.
					if got.PeakLive < wantStats.PeakLive/int64(workers) {
						t.Errorf("%s: merged PeakLive %d implausibly low (seq %d)", name, got.PeakLive, wantStats.PeakLive)
					}
					got.PeakLive, wantStats.PeakLive = 0, 0
					eqStats(t, name, got, wantStats)
				})
			}
		}
	}
}

// replaySharded replays the whole trace into a sharded runtime of shards
// shards and returns its settled counters.
func replaySharded(r *Reader, spec *monitor.Spec, opts monitor.Options, shards int) (monitor.Stats, error) {
	rt, err := shard.New(spec, shard.Options{Options: opts, Shards: shards})
	if err != nil {
		return monitor.Stats{}, err
	}
	defer rt.Close()
	if _, err := r.Replay(rt, ReplayOptions{}); err != nil {
		return monitor.Stats{}, err
	}
	rt.Flush()
	return rt.Stats(), nil
}

// TestParallelReplayRefusesFullCreation: full creation does not confine a
// monitor to its pivot's shard, so a sharded replay under it would
// over-count Created. The sharded runtime refuses it with
// monitor.Options.Check's message for the requested shard count, and
// still accepts one shard.
func TestParallelReplayRefusesFullCreation(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.rvt")
	record(t, path, spec, genUnsafeIter(t, spec, 2, 4), 64)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	full := monitor.Options{GC: monitor.GCNone, Creation: monitor.CreateFull}
	want := full.Check(spec, 4)
	if _, err := replaySharded(r, spec, full, 4); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("×4 under full creation: %v, want Check's %v", err, want)
	}
	if _, err := replaySharded(r, spec, full, 1); err != nil {
		t.Fatalf("×1 under full creation: %v", err)
	}
}

// TestPivotFilter: replaying only selected slices yields exactly those
// slices' verdicts, and the pivot index skims pure (broadcast-free)
// segments wholesale.
func TestPivotFilter(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	steps := genHasNext(t, spec, 60, 8)
	opts := monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable}
	_, allVerdicts := runOnline(t, spec, steps, opts)
	path := filepath.Join(t.TempDir(), "t.rvt")
	record(t, path, spec, steps, 40)

	// Iterator 3 (1-based: i%3==2 slices violate) is a violating slice.
	wantID := uint64(3)
	var want []string
	for _, v := range allVerdicts {
		if containsID(v, wantID) {
			want = append(want, v)
		}
	}
	if len(want) == 0 {
		t.Fatal("test stream produced no verdict for the filtered slice")
	}
	_, got, rs := replaySeq(t, path, spec, opts, ReplayOptions{Pivots: []uint64{wantID}})
	eqVerdicts(t, "filtered", got, want)
	if rs.SegmentsSkimmed == 0 {
		t.Errorf("pivot filter skimmed no segments (replay stats %+v)", rs)
	}
}

// TestPivotFilterRefusesUnpivotedSpec: a spec with no pivot has no slices
// to select — two creation events over disjoint parameters, either of
// which can begin a goal trace — so a pivot-selective replay is refused,
// naming the spec, instead of silently replaying every slice.
func TestPivotFilterRefusesUnpivotedSpec(t *testing.T) {
	bp, err := ere.Compile("a | b", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	spec := &monitor.Spec{
		Name:   "Disjoint",
		Params: []string{"x", "y"},
		Events: []monitor.EventDef{
			{Name: "a", Params: param.SetOf(0)},
			{Name: "b", Params: param.SetOf(1)},
		},
		BP:   bp,
		Goal: []logic.Category{logic.Match},
	}
	if err := spec.Analyze(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.rvt")
	record(t, path, spec, []step{{sym: 0, ids: []uint64{1}}, {sym: 1, ids: []uint64{2}}}, 64)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := r.Replay(eng, ReplayOptions{Pivots: []uint64{1}}); err == nil || !strings.Contains(err.Error(), `"Disjoint"`) {
		t.Fatalf("pivot-selective replay of a spec without a pivot: %v, want an error naming the spec", err)
	}
	if eng.Stats().Events != 0 {
		t.Errorf("refused replay dispatched %d events", eng.Stats().Events)
	}
}

// containsID reports whether a verdict key binds the ID (vkey embeds the
// ID array verbatim).
func containsID(v string, id uint64) bool {
	return len(v) > 0 && (stringsContains(v, fmt.Sprintf("[%d ", id)) ||
		stringsContains(v, fmt.Sprintf(" %d ", id)) ||
		stringsContains(v, fmt.Sprintf(" %d]", id)))
}

func stringsContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestTornTailRecovery: a trace cut off at any byte — a crashed writer's
// torn tail — still opens, keeps every intact segment, and replays
// cleanly. A corrupted footer truncates the same way.
func TestTornTailRecovery(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	steps := genUnsafeIter(t, spec, 3, 10)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.rvt")
	record(t, full, spec, steps, 20)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	fullSegs := r.Segments()
	if fullSegs < 2 {
		t.Fatalf("want a multi-segment trace, got %d segments", fullSegs)
	}

	opts := monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable}
	cut := filepath.Join(dir, "cut.rvt")
	for n := len(data) - 1; n >= len(fileMagic)+1; n -= 7 {
		if err := os.WriteFile(cut, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		rc, err := Open(cut)
		if err != nil {
			t.Fatalf("cut at %d bytes: %v", n, err)
		}
		if rc.Segments() > fullSegs {
			t.Fatalf("cut at %d bytes: %d segments > full %d", n, rc.Segments(), fullSegs)
		}
		if n < len(data) && rc.Segments() == fullSegs && !rc.Truncated() {
			// Cutting inside the last footer must not keep the segment.
			t.Fatalf("cut at %d bytes: full segment count with no truncation flag", n)
		}
		eng, err := monitor.New(spec, monitor.Options{GC: opts.GC, Creation: opts.Creation})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rc.Replay(eng, ReplayOptions{}); err != nil {
			t.Fatalf("cut at %d bytes: replay: %v", n, err)
		}
		eng.Close()
	}

	// Flip a payload byte of the tail segment: CRC catches it and the
	// trace ends at the previous segment.
	bad := append([]byte(nil), data...)
	bad[len(bad)-6] ^= 0xFF
	if err := os.WriteFile(cut, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	rb, err := Open(cut)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Truncated() || rb.Segments() != fullSegs-1 {
		t.Fatalf("corrupted footer: segments=%d truncated=%v, want %d/true", rb.Segments(), rb.Truncated(), fullSegs-1)
	}
}

// TestWriterKilledMidSegment kills a writer mid-segment — the file ends in
// a sealed prefix plus a partial segment write — and recovers the prefix.
func TestWriterKilledMidSegment(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	steps := genHasNext(t, spec, 30, 4)
	dir := t.TempDir()
	full := filepath.Join(dir, "full.rvt")
	record(t, full, spec, steps, 25)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Segments() < 3 {
		t.Fatalf("want ≥3 segments, got %d", rf.Segments())
	}
	// "Kill" after the second segment plus half of the third: find the
	// third segment's start by scanning, then cut inside it.
	offs := segmentOffsets(t, data)
	cutAt := offs[2] + (offs[3]-offs[2])/2
	torn := filepath.Join(dir, "torn.rvt")
	if err := os.WriteFile(torn, data[:cutAt], 0o644); err != nil {
		t.Fatal(err)
	}
	rt2, err := Open(torn)
	if err != nil {
		t.Fatal(err)
	}
	if !rt2.Truncated() {
		t.Fatal("mid-segment kill not reported as truncated")
	}
	if rt2.Segments() != 2 {
		t.Fatalf("recovered %d segments, want 2", rt2.Segments())
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rt2.Replay(eng, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Events == 0 {
		t.Fatal("recovered trace replayed no events")
	}
	eng.Close()
}

// segmentOffsets returns the byte offset of every segment start plus the
// file length as a final sentinel.
func segmentOffsets(t *testing.T, data []byte) []int64 {
	t.Helper()
	var offs []int64
	pos := len(fileMagic) + 1
	for pos < len(data) {
		offs = append(offs, int64(pos))
		if !bytes.HasPrefix(data[pos:], []byte(segMagic)) {
			t.Fatalf("corrupt fixture at offset %d", pos)
		}
		plen, n := binary.Uvarint(data[pos+len(segMagic):])
		if n <= 0 {
			t.Fatalf("corrupt fixture at offset %d", pos)
		}
		pos += len(segMagic) + n + int(plen) + 4
	}
	if pos != len(data) {
		t.Fatalf("fixture's last segment overruns the file (%d > %d bytes)", pos, len(data))
	}
	return append(offs, int64(len(data)))
}

// TestOpenRejectsForeignFiles: a non-trace file is ErrNotTrace, not a
// misparse.
func TestOpenRejectsForeignFiles(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x")
	if err := os.WriteFile(p, []byte("#!/bin/sh\necho hi\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p); err != ErrNotTrace {
		t.Fatalf("Open(script) = %v, want ErrNotTrace", err)
	}
}
