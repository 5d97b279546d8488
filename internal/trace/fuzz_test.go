package trace

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// fuzzSeeds returns the seed corpus: a small valid trace file, that file
// cut three bytes short, and hand-made framings. The valid file's free
// records name objects past maxDenseID and objects twice, and its later
// segments carry no broadcast event, so a one-slice replay skims them.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "seed.rvt")
	w, err := CreateForSpec(path, spec, WriterOptions{SegmentRecords: 8})
	if err != nil {
		tb.Fatal(err)
	}
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	var late []uint64
	for i := uint64(0); i < 12; i++ {
		it := 10 + i
		if i%4 == 3 {
			it += maxDenseID
		}
		w.EventIDs(create, []uint64{1, it})
		w.EventIDs(next, []uint64{it})
		w.EventIDs(update, []uint64{1})
		if i%2 == 0 {
			w.FreeIDs([]uint64{it})
		} else {
			late = append(late, it)
		}
	}
	// The tail binds other collections and no broadcast next: a replay of
	// collection 1's slice skims it, applying the late deaths of the
	// slice's iterators (each named twice) and at last of 1 itself.
	for k, it := range late {
		c := 2 + uint64(k)
		w.EventIDs(create, []uint64{c, it + 100})
		w.EventIDs(update, []uint64{c})
		w.FreeIDs([]uint64{it, it})
		w.FreeIDs([]uint64{it + 100})
	}
	w.FreeIDs([]uint64{1})
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		seed,
		seed[:len(seed)-3],
		{},
		[]byte("RVTR"),
		append([]byte("RVTR\x01RSEG"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		// A length prefix (200) running past the end of the file.
		append([]byte("RVTR\x01RSEG"), 0xC8, 0x01, 0x00, 0x00, 0x00, 0x00),
	}
}

// checkTraceBytes presents data as the trace file at path: it must either
// fail to open, or open (possibly truncated) and then scan and replay
// through an engine, whole and for one slice, without a panic. Replay may
// reject a decodable-but-inconsistent trace (arity mismatch, symbol out of
// range); the pivot-selective replay of the first slice exercises the skim
// rule and the on-demand segment loads.
func checkTraceBytes(t *testing.T, spec *monitor.Spec, path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		return
	}
	r.Records()
	pivots := r.PivotIDs()
	r.SymbolNames()
	r.Scan(func(Record) error { return nil })
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
}

// FuzzTraceSegment mirrors FuzzWire for the trace store: arbitrary bytes
// presented as a trace file must never panic the scanner or the replayer.
func FuzzTraceSegment(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		f.Fatal(err)
	}
	// A worker runs one input at a time: one file per process will do.
	path := filepath.Join(f.TempDir(), "fuzz.rvt")
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTraceBytes(t, spec, path, data)
	})
}

// segmentSpans returns the offset of every segment frame that starts in
// data, its length-prefix width and its payload length, as far as the
// framing parses; a frame may run past the end of data.
func segmentSpans(data []byte) (offs, widths, plens []int) {
	pos := len(fileMagic) + 1
	for pos+len(segMagic) < len(data) && string(data[pos:pos+len(segMagic)]) == segMagic {
		plen, n := binary.Uvarint(data[pos+len(segMagic):])
		if n <= 0 || plen > MaxSegment {
			break
		}
		offs, widths, plens = append(offs, pos), append(widths, n), append(plens, int(plen))
		pos += len(segMagic) + n + int(plen) + 4
	}
	return offs, widths, plens
}

// reseal rewrites the CRC footer of every whole segment of data to match
// its payload, so a mutated payload reaches the record decoder and the
// replayer instead of stopping Open at the CRC check.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	offs, widths, plens := segmentSpans(out)
	for k, off := range offs {
		start := off + len(segMagic) + widths[k]
		end := start + plens[k]
		if end+4 > len(out) {
			break
		}
		binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[start:end]))
	}
	return out
}

// TestTraceSegmentMutations runs FuzzTraceSegment's check over
// deterministic mutations of every seed, so the scanner, the record
// decoder, the free records and the skim rule meet malformed input in
// every tier-1 run, not only in a fuzzing session: bit flips, byte
// overwrites, truncations and length-prefix edits from a fixed PRNG, each
// presented as is and with its segments' CRCs resealed.
func TestTraceSegmentMutations(t *testing.T) {
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	perKind := 64
	if testing.Short() {
		perKind = 8
	}
	path := filepath.Join(t.TempDir(), "mut.rvt")
	rng := rand.New(rand.NewSource(1))
	check := func(data []byte) {
		checkTraceBytes(t, spec, path, data)
		checkTraceBytes(t, spec, path, reseal(data))
	}
	for _, seed := range fuzzSeeds(t) {
		check(seed)
		if len(seed) == 0 {
			continue
		}
		mutate := func(edit func(b []byte)) {
			b := append([]byte(nil), seed...)
			edit(b)
			check(b)
		}
		for range perKind {
			mutate(func(b []byte) { b[rng.Intn(len(b))] ^= 1 << rng.Intn(8) })
			mutate(func(b []byte) { b[rng.Intn(len(b))] = byte(rng.Intn(256)) })
			check(seed[:rng.Intn(len(seed))])
		}
		// Every length prefix set to a neighbouring, empty, oversized and
		// file-overrunning length, written in the prefix's own width.
		offs, widths, plens := segmentSpans(seed)
		for k, off := range offs {
			for _, plen := range []int{plens[k] - 1, plens[k] + 1, 0, MaxSegment + 1, len(seed)} {
				if plen < 0 {
					continue
				}
				var pre [binary.MaxVarintLen64]byte
				n := binary.PutUvarint(pre[:], uint64(plen))
				b := append(append(append([]byte(nil), seed[:off+len(segMagic)]...), pre[:n]...), seed[off+len(segMagic)+widths[k]:]...)
				check(b)
			}
		}
	}
}
