package trace

import (
	"path/filepath"
	"testing"

	"rvgo/internal/param"
	"rvgo/internal/props"
)

func TestRingWindow(t *testing.T) {
	r := newRing(4)
	ids := []uint64{7, 9}
	for i := 0; i < 6; i++ {
		r.event(i, ids)
	}
	r.free(ids)
	snap := r.snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot of 7 records in a 4-ring has %d entries", len(snap))
	}
	// Oldest→newest: dispatches 4, 5, 6 (0-based syms 3,4,5) then the free.
	for i, wantSym := range []int32{3, 4, 5} {
		e := snap[i]
		if e.Kind != RingDispatch || e.Sym != wantSym {
			t.Fatalf("snap[%d] = kind %d sym %d, want dispatch %d", i, e.Kind, e.Sym, wantSym)
		}
		if e.N != 2 || e.IDs[0] != 7 || e.IDs[1] != 9 {
			t.Fatalf("snap[%d] ids = %v n=%d", i, e.IDs, e.N)
		}
		if e.Seq != uint64(i+4) {
			t.Fatalf("snap[%d] seq = %d, want %d", i, e.Seq, i+4)
		}
	}
	if f := snap[3]; f.Kind != RingFree || f.Sym != -1 || f.N != 2 || f.IDs[0] != 7 || f.IDs[1] != 9 {
		t.Fatalf("free entry = %+v", f)
	}
}

func TestRingFreeSplitsLongDeaths(t *testing.T) {
	r := newRing(8)
	ids := make([]uint64, param.MaxParams+3)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	r.free(ids)
	snap := r.snapshot()
	if len(snap) != 2 {
		t.Fatalf("long free split into %d entries, want 2", len(snap))
	}
	if int(snap[0].N)+int(snap[1].N) != len(ids) {
		t.Fatalf("split lost IDs: %d + %d != %d", snap[0].N, snap[1].N, len(ids))
	}
}

// TestRingRecordZeroAlloc gates the recording hot path: the ring, and a
// Recorder with both a ring and a file, record without allocating.
func TestRingRecordZeroAlloc(t *testing.T) {
	gate := func(what string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(2000, f); avg != 0 {
			t.Errorf("%s allocates %.2f/op", what, avg)
		}
	}
	r := newRing(256)
	ids := []uint64{1, 2}
	gate("ring event", func() { r.event(1, ids) })
	gate("ring free", func() { r.free(ids) })

	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(spec, 256, filepath.Join(t.TempDir(), "t.rvt"), WriterOptions{})
	create := sym(t, spec, "create")
	gate("Recorder.Event", func() { rec.Event(create, ids) })
	gate("Recorder.Free", func() { rec.Free(ids[:1]) })
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderFailureRule: the file's first error stops it. Records after
// the failure are dropped, Err and Close return the first error, the ring
// keeps recording, and Open reads the file up to its last sealed segment.
// A file that cannot be created is the same failure, met first.
func TestRecorderFailureRule(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	update := sym(t, spec, "update")
	path := filepath.Join(t.TempDir(), "t.rvt")
	rec := NewRecorder(spec, 4, path, WriterOptions{SegmentRecords: 4})
	for id := uint64(1); id <= 4; id++ { // the fourth record seals segment 0
		rec.Event(update, []uint64{id})
	}
	// The file fails under the writer: the eighth record's seal fails.
	rec.w.f.Close()
	for id := uint64(5); id <= 12; id++ {
		rec.Event(update, []uint64{id})
	}
	rec.Free([]uint64{1})
	first := rec.Err()
	if first == nil {
		t.Fatal("a failed segment write left Err nil")
	}
	if n := rec.w.records; n != 4 {
		t.Errorf("the failed segment holds %d records, want 4 (5–8): none after the failure", n)
	}
	if win := rec.Window(); len(win) != 4 || win[3].Kind != RingFree || win[3].Seq != 13 {
		t.Errorf("the ring stopped with the file: window %+v", win)
	}
	rec.Flush()
	if err := rec.Err(); err != first {
		t.Errorf("Err after Flush = %v, want the first error %v", err, first)
	}
	if err := rec.Close(); err != first {
		t.Errorf("Close = %v, want the first error %v", err, first)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	if err := r.Scan(func(x Record) error { got = append(got, x.IDs[0]); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != 1 || got[3] != 4 || r.Segments() != 1 {
		t.Errorf("reopened file holds %v in %d segments, want [1 2 3 4] in 1", got, r.Segments())
	}

	bad := NewRecorder(spec, 0, filepath.Join(t.TempDir(), "no", "dir", "t.rvt"), WriterOptions{})
	if bad.Err() == nil {
		t.Fatal("a file that cannot be created left Err nil")
	}
	bad.Event(update, []uint64{1})
	bad.Flush()
	if err := bad.Close(); err != bad.Err() {
		t.Errorf("Close = %v, want the creation error %v", err, bad.Err())
	}
}

// BenchmarkRingRecordAllocs is the benchstat form of the zero-alloc gate.
func BenchmarkRingRecordAllocs(b *testing.B) {
	b.ReportAllocs()
	r := newRing(1024)
	ids := []uint64{1, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.event(i&7, ids)
	}
}
