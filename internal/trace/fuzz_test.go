package trace

import (
	"os"
	"path/filepath"
	"testing"

	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// fuzzSeed builds a small valid trace file's bytes for seeding the corpus.
func fuzzSeed(f *testing.F, segRecords int) []byte {
	f.Helper()
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.rvt")
	w, err := CreateForSpec(path, spec, WriterOptions{SegmentRecords: segRecords})
	if err != nil {
		f.Fatal(err)
	}
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	for i := uint64(0); i < 12; i++ {
		w.EventIDs(create, []uint64{1, 10 + i})
		w.EventIDs(next, []uint64{10 + i})
		w.EventIDs(update, []uint64{1})
		w.FreeIDs([]uint64{10 + i})
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzTraceSegment mirrors FuzzWire for the trace store: arbitrary bytes
// presented as a trace file must never panic the scanner or the replayer —
// they either open (possibly truncated) and replay cleanly through an
// engine, whole and for one slice, or fail with an error.
func FuzzTraceSegment(f *testing.F) {
	seed := fuzzSeed(f, 8)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add([]byte{})
	f.Add([]byte("RVTR"))
	f.Add(append([]byte("RVTR\x01RSEG"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01))
	// A length prefix (200) running past the end of the file.
	f.Add(append([]byte("RVTR\x01RSEG"), 0xC8, 0x01, 0x00, 0x00, 0x00, 0x00))
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.rvt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		r.Records()
		pivots := r.PivotIDs()
		r.SymbolNames()
		// Replay may reject a decodable-but-inconsistent trace (arity
		// mismatch, symbol out of range); it must not panic. The
		// pivot-selective replay of the first slice exercises the skim
		// rule and the on-demand segment loads.
		replay := func(ro ReplayOptions) {
			eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if _, err := r.Replay(eng, ro); err == nil {
				eng.Flush()
			}
		}
		replay(ReplayOptions{})
		if len(pivots) > 0 {
			replay(ReplayOptions{Pivots: pivots[:1]})
		}
	})
}
