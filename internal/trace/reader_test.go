package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// TestSkimAppliesLateDeaths: a pivot query reads the segments its slice
// binds, skims the later ones only while an object it dispatched is
// still alive, and settles exactly as a full replay of its slice does.
// Three slices of one HasNext trace, four records a segment:
//
//	seg 0  hasnext Q, next Q, free Q, hasnext P   Q dies early
//	seg 1  next P, next P, hasnext R, next R      P violates
//	seg 2  fillers A, B                           no frees: never read
//	seg 3  free A, hasnext C, free P, next C      P dies in a skimmed segment
//	seg 4  free B, free C, free R, free D         frees only: R dies here
//	seg 5  filler E, hasnext F                    every slice is dead by now
//	seg 6  next F, free F
//
// Each query must equal a full replay of a trace holding only its slice's
// events and every free, under each GC policy; and once seg 5 is
// corrupted on disk after Open, each query still succeeds — it never
// reads a segment after its slice died — while a full replay fails. A free
// record naming one object twice, and every ID offset past maxDenseID,
// change nothing either.
func TestSkimAppliesLateDeaths(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	hn, next := sym(t, spec, "hasnexttrue"), sym(t, spec, "next")
	const P, Q, R, A, B, C, D, E, F = 1, 2, 3, 4, 5, 6, 7, 8, 9
	ev := func(s int, id uint64) step { return step{sym: s, ids: []uint64{id}} }
	free := func(id uint64) step { return step{sym: -1, ids: []uint64{id}} }
	steps := []step{
		ev(hn, Q), ev(next, Q), free(Q), ev(hn, P),
		ev(next, P), ev(next, P), ev(hn, R), ev(next, R),
		ev(hn, A), ev(next, A), ev(hn, B), ev(next, B),
		free(A), ev(hn, C), free(P), ev(next, C),
		free(B), free(C), free(R), free(D),
		ev(hn, E), ev(next, E), free(E), ev(hn, F),
		ev(next, F), free(F),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.rvt")
	record(t, path, spec, steps, 4)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Segments() != 7 {
		t.Fatalf("fixture has %d segments, want 7", r.Segments())
	}

	query := func(id uint64, opts monitor.Options) (monitor.Stats, []string, ReplayStats, error) {
		var verdicts []string
		opts.OnVerdict = func(v monitor.Verdict) { verdicts = append(verdicts, vkey(v)) }
		eng, err := monitor.New(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		rs, err := r.Replay(eng, ReplayOptions{Pivots: []uint64{id}})
		eng.Flush()
		sort.Strings(verdicts)
		return eng.Stats(), verdicts, rs, err
	}
	cases := []struct {
		name    string
		id      uint64
		skimmed int // segments the index lets the query pass over
	}{
		{"dies-late", P, 5},
		{"dies-early", Q, 6},
		{"dies-in-frees-only-segment", R, 6},
	}
	for _, gc := range gcPolicies {
		opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable}
		for _, sl := range cases {
			name := fmt.Sprintf("%s/%s", gc, sl.name)
			var proj []step
			for _, st := range steps {
				if st.sym < 0 || st.ids[0] == sl.id {
					proj = append(proj, st)
				}
			}
			projPath := filepath.Join(dir, fmt.Sprintf("proj%d.rvt", sl.id))
			record(t, projPath, spec, proj, 4)
			wantStats, wantVerdicts, _ := replaySeq(t, projPath, spec, opts, ReplayOptions{})
			gotStats, gotVerdicts, rs, err := query(sl.id, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			eqStats(t, name, gotStats, wantStats)
			eqVerdicts(t, name, gotVerdicts, wantVerdicts)
			if rs.SegmentsSkimmed != sl.skimmed {
				t.Errorf("%s: skimmed %d segments, want %d", name, rs.SegmentsSkimmed, sl.skimmed)
			}
		}
	}
	if _, v, _, _ := query(P, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable}); len(v) == 0 {
		t.Fatal("the violating slice reported no verdict")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := segmentOffsets(t, data)
	data[(offs[5]+offs[6])/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sl := range cases {
		if _, _, _, err := query(sl.id, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable}); err != nil {
			t.Errorf("%s: query read a segment after its slice died: %v", sl.name, err)
		}
	}
	eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := r.Replay(eng, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "segment 5") {
		t.Errorf("full replay of a trace corrupted after Open: %v, want an error naming segment 5", err)
	}

	// A free record may name one object twice; that is one death. A query
	// of two slices, S and T, must still read on after S's record [S, S]
	// and apply T's free:
	//
	//	seg 0  hasnext S, next S, hasnext T, next T   both slices owned
	//	seg 1  free S S, hasnext G, next G, free G    skimmed: S dies once
	//	seg 2  hasnext H, free T, next H, free H      skimmed: T dies here
	const S, T, G, H = 11, 12, 13, 14
	dup := []step{
		ev(hn, S), ev(next, S), ev(hn, T), ev(next, T),
		{sym: -1, ids: []uint64{S, S}}, ev(hn, G), ev(next, G), free(G),
		ev(hn, H), free(T), ev(next, H), free(H),
	}
	dupPath := filepath.Join(dir, "dup.rvt")
	record(t, dupPath, spec, dup, 4)
	var proj []step
	for _, st := range dup {
		if st.sym < 0 || st.ids[0] == S || st.ids[0] == T {
			proj = append(proj, st)
		}
	}
	projPath := filepath.Join(dir, "dup-proj.rvt")
	record(t, projPath, spec, proj, 4)
	for _, gc := range gcPolicies {
		opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable}
		name := fmt.Sprintf("%s/free-names-object-twice", gc)
		wantStats, wantVerdicts, _ := replaySeq(t, projPath, spec, opts, ReplayOptions{})
		gotStats, gotVerdicts, rs := replaySeq(t, dupPath, spec, opts, ReplayOptions{Pivots: []uint64{S, T}})
		eqStats(t, name, gotStats, wantStats)
		eqVerdicts(t, name, gotVerdicts, wantVerdicts)
		if rs.SegmentsSkimmed != 2 {
			t.Errorf("%s: skimmed %d segments, want 2", name, rs.SegmentsSkimmed)
		}
	}

	// IDs past maxDenseID live in the map half of the replay's object
	// table. With every ID offset by 1<<40, each query above, the [S, S]
	// record included, must report the same verdicts (labelled r<id>),
	// settle the same Stats and skim the same segments as its dense run.
	const far = 1 << 40
	queryAt := func(path string, pivots []uint64, off uint64, opts monitor.Options) (monitor.Stats, []string, ReplayStats) {
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		var verdicts []string
		opts.OnVerdict = func(v monitor.Verdict) {
			k := v.Key
			for m := k.Mask; m != 0; m = m.Rest() {
				i := m.First()
				if got, want := v.Key.String(), fmt.Sprintf("=r%d", k.IDs[i]); !strings.Contains(got, want) {
					t.Errorf("verdict labels object %d %q, want %q", k.IDs[i], got, want)
				}
				k.IDs[i] -= off
			}
			verdicts = append(verdicts, fmt.Sprintf("%d/%s/%v/%v", v.Sym, v.Cat, k.Mask, k.IDs))
		}
		eng, err := monitor.New(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		want := make([]uint64, len(pivots))
		for i, id := range pivots {
			want[i] = id + off
		}
		rs, err := r.Replay(eng, ReplayOptions{Pivots: want})
		if err != nil {
			t.Fatal(err)
		}
		eng.Flush()
		sort.Strings(verdicts)
		return eng.Stats(), verdicts, rs
	}
	for fi, fx := range []struct {
		steps  []step
		pivots [][]uint64
	}{
		{steps, [][]uint64{{P}, {Q}, {R}}},
		{dup, [][]uint64{{S, T}}},
	} {
		densePath := filepath.Join(dir, fmt.Sprintf("dense%d.rvt", fi))
		record(t, densePath, spec, fx.steps, 4)
		shifted := make([]step, len(fx.steps))
		for i, st := range fx.steps {
			shifted[i] = step{sym: st.sym}
			for _, id := range st.ids {
				shifted[i].ids = append(shifted[i].ids, id+far)
			}
		}
		farPath := filepath.Join(dir, fmt.Sprintf("far%d.rvt", fi))
		record(t, farPath, spec, shifted, 4)
		for _, gc := range gcPolicies {
			opts := monitor.Options{GC: gc, Creation: monitor.CreateEnable}
			for _, pivots := range fx.pivots {
				name := fmt.Sprintf("%s/far%v", gc, pivots)
				wantStats, wantVerdicts, wantRS := queryAt(densePath, pivots, 0, opts)
				gotStats, gotVerdicts, gotRS := queryAt(farPath, pivots, far, opts)
				eqStats(t, name, gotStats, wantStats)
				eqVerdicts(t, name, gotVerdicts, wantVerdicts)
				if gotRS.SegmentsSkimmed != wantRS.SegmentsSkimmed {
					t.Errorf("%s: skimmed %d segments, want %d", name, gotRS.SegmentsSkimmed, wantRS.SegmentsSkimmed)
				}
			}
		}
	}
}

// TestReaderDetectsChangedFile: Open indexes a trace; a payload byte
// flipped afterwards, or the file cut short afterwards, makes Replay and
// Scan fail with an error naming a segment — never a panic, never a
// misdecoded record delivered as if nothing happened.
func TestReaderDetectsChangedFile(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	steps := genUnsafeIter(t, spec, 3, 10)
	path := filepath.Join(t.TempDir(), "t.rvt")
	record(t, path, spec, steps, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := segmentOffsets(t, data)
	if len(offs) < 4 {
		t.Fatalf("want at least 3 segments, got %d", len(offs)-1)
	}

	check := func(what string, change func()) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		change()
		eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if _, err := r.Replay(eng, ReplayOptions{}); err == nil || !strings.Contains(err.Error(), "trace: segment ") {
			t.Errorf("%s: Replay = %v, want an error naming the segment", what, err)
		}
		if err := r.Scan(func(Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "trace: segment ") {
			t.Errorf("%s: Scan = %v, want an error naming the segment", what, err)
		}
	}
	check("payload byte flipped", func() {
		// The last byte before segment 1's footer ends its last record's
		// last ID: flipped in the low bit, the record still decodes, to a
		// different object, so only the CRC can tell.
		bad := append([]byte(nil), data...)
		bad[offs[2]-5] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	check("file truncated", func() {
		if err := os.Truncate(path, offs[1]+(offs[2]-offs[1])/2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestConcurrentReplaysShareReader: one Reader serves replays and scans
// from several goroutines at once — each call reads the file through its
// own handle and buffer — and every one settles as a replay run alone.
func TestConcurrentReplaysShareReader(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.rvt")
	record(t, path, spec, genHasNext(t, spec, 60, 8), 40)
	opts := monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	run := func(id uint64) (monitor.Stats, error) {
		eng, err := monitor.New(spec, opts)
		if err != nil {
			return monitor.Stats{}, err
		}
		defer eng.Close()
		if _, err := r.Replay(eng, ReplayOptions{Pivots: []uint64{id}}); err != nil {
			return monitor.Stats{}, err
		}
		if err := r.Scan(func(Record) error { return nil }); err != nil {
			return monitor.Stats{}, err
		}
		eng.Flush()
		return eng.Stats(), nil
	}
	ids := []uint64{3, 17, 31, 45}
	want := make([]monitor.Stats, len(ids))
	for k, id := range ids {
		if want[k], err = run(id); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]monitor.Stats, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for k, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = run(id)
		}()
	}
	wg.Wait()
	for k := range ids {
		if errs[k] != nil {
			t.Fatalf("pivot %d: %v", ids[k], errs[k])
		}
		eqStats(t, fmt.Sprintf("pivot %d", ids[k]), got[k], want[k])
	}
}
