package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"rvgo/internal/wire"
)

// Reader is an opened trace: an index of the file's intact segments —
// each one's decoded header, pivot IDs and payload position — but none of
// their records. Open streams the file once through one reused buffer,
// checking every segment's CRC, and keeps only the index. Replay and Scan
// read back just the segments they decode, with a file
// handle and a buffer of their own, and check each payload's CRC again:
// a file changed or cut after Open yields an error naming the segment,
// never a misdecoded record. The trace must therefore be a regular file
// that stays in place while the Reader is used; Open refuses a pipe or a
// device. The Reader itself is read-only after Open and holds no open
// file, so concurrent replays may share one.
type Reader struct {
	path      string
	segs      []segment
	pivots    []uint64 // every segment's pivot IDs, back to back
	maxSize   int      // largest payload, the size of a replay's buffer
	truncated bool
}

// Open reads and indexes a trace file. A torn tail — a final segment with
// a short payload or an invalid CRC footer, as left by a crashed writer —
// is truncated, not an error: the trace ends at the last intact segment
// and Truncated reports the cut. Only a missing or foreign file header,
// or a failing read, is fatal.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("trace: %s is not a regular file", path)
	}
	ix := indexer{br: bufio.NewReader(f), size: fi.Size()}
	var head [len(fileMagic) + 1]byte
	if _, err := io.ReadFull(ix.br, head[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrNotTrace
		}
		return nil, err
	}
	if string(head[:len(fileMagic)]) != fileMagic {
		return nil, ErrNotTrace
	}
	if head[len(fileMagic)] != Version {
		return nil, fmt.Errorf("trace: format version %d, want %d", head[len(fileMagic)], Version)
	}
	r := &Reader{path: path}
	ix.pos = int64(len(head))
	for ix.pos < ix.size {
		ok, err := ix.segment(r)
		if err != nil {
			return nil, err
		}
		if !ok {
			r.truncated = true
			break
		}
	}
	// The index outlives Open; the pivot IDs are most of it, so drop the
	// slack append left behind.
	if cap(r.pivots) > len(r.pivots)+len(r.pivots)/8 {
		r.pivots = append([]uint64(nil), r.pivots...)
	}
	return r, nil
}

// indexer is Open's pass over the file: the read position, the payload
// buffer it reuses, and the symbol tables decoded so far.
type indexer struct {
	br   *bufio.Reader
	pos  int64 // file offset of the next unread byte
	size int64 // file size at Open
	buf  []byte
	tabs []*symTable
}

// segment indexes the segment at the read position into r. ok=false means
// the tail from there on is torn (cut short or corrupt) and indexing
// stops; err is a read that failed.
func (ix *indexer) segment(r *Reader) (ok bool, err error) {
	head, err := ix.br.Peek(len(segMagic) + binary.MaxVarintLen64)
	if err != nil && err != io.EOF {
		return false, err
	}
	if len(head) < len(segMagic) || string(head[:len(segMagic)]) != segMagic {
		return false, nil
	}
	plen, n := binary.Uvarint(head[len(segMagic):])
	if n <= 0 || plen > MaxSegment {
		return false, nil
	}
	n += len(segMagic)
	ix.br.Discard(n) // cannot fail: the n bytes were peeked
	ix.pos += int64(n)
	if uint64(ix.size-ix.pos) < plen+4 {
		return false, nil
	}
	size := int(plen)
	if cap(ix.buf) < size+4 {
		ix.buf = make([]byte, size+4+size/4) // room for a slightly larger next segment
	}
	buf := ix.buf[:size+4]
	if _, err := io.ReadFull(ix.br, buf); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return false, nil // the file shrank under us
		}
		return false, err
	}
	payload := buf[:size]
	crc := binary.LittleEndian.Uint32(buf[size:])
	if crc32.ChecksumIEEE(payload) != crc {
		return false, nil
	}
	// The CRC matched, so a header that does not decode is a writer bug or
	// deliberate corruption; either way the tail is unusable.
	d := wire.Cursor{Buf: payload}
	skipSymbols(&d)
	if d.Err != nil {
		return false, nil
	}
	tab := ix.table(payload[:d.Pos])
	if tab == nil {
		return false, nil
	}
	lo := len(r.pivots)
	var prev uint64
	for k := d.Count(); k > 0; k-- {
		prev += d.U()
		r.pivots = append(r.pivots, prev)
	}
	seg := segment{
		tab:       tab,
		pivLo:     lo,
		pivHi:     len(r.pivots),
		broadcast: d.U(),
		events:    d.U(),
		records:   d.U(),
		off:       ix.pos,
		size:      size,
		recs:      d.Pos,
		crc:       crc,
	}
	if d.Err != nil {
		r.pivots = r.pivots[:lo]
		return false, nil
	}
	r.segs = append(r.segs, seg)
	r.maxSize = max(r.maxSize, size)
	ix.pos += int64(size + 4)
	return true, nil
}

// table returns the decoded symbol table whose encoding is image,
// decoding it only if no earlier segment carried the same bytes; nil
// means image does not decode.
func (ix *indexer) table(image []byte) *symTable {
	for _, t := range ix.tabs {
		if bytes.Equal(t.image, image) {
			return t
		}
	}
	t, err := decodeSymbols(bytes.Clone(image))
	if err != nil {
		return nil
	}
	ix.tabs = append(ix.tabs, t)
	return t
}

// source reads segment payloads back for one replay or scan: one file
// handle and one buffer, reused for every segment it loads.
type source struct {
	r   *Reader
	f   *os.File // opened at the first load
	buf []byte
}

// load reads segment si's payload from the file, checks it against the
// CRC Open indexed and returns its record region, valid until the next
// load.
func (s *source) load(si int) ([]byte, error) {
	seg := &s.r.segs[si]
	if s.f == nil {
		f, err := os.Open(s.r.path)
		if err != nil {
			return nil, err
		}
		s.f = f
	}
	if s.buf == nil {
		s.buf = make([]byte, s.r.maxSize)
	}
	p := s.buf[:seg.size]
	if n, err := s.f.ReadAt(p, seg.off); n < len(p) {
		return nil, fmt.Errorf("file cut short since Open: %d of %d payload bytes at offset %d: %w", n, len(p), seg.off, err)
	}
	if crc32.ChecksumIEEE(p) != seg.crc {
		return nil, errors.New("file changed since Open: payload CRC mismatch")
	}
	return p[seg.recs:], nil
}

func (s *source) close() {
	if s.f != nil {
		s.f.Close()
	}
}

// Segments returns the number of intact segments.
func (r *Reader) Segments() int { return len(r.segs) }

// Truncated reports whether Open cut a torn tail off the trace.
func (r *Reader) Truncated() bool { return r.truncated }

// Records returns the total record count across intact segments.
func (r *Reader) Records() uint64 {
	var n uint64
	for i := range r.segs {
		n += r.segs[i].records
	}
	return n
}

// Events returns the total event-record count across intact segments.
func (r *Reader) Events() uint64 {
	var n uint64
	for i := range r.segs {
		n += r.segs[i].events
	}
	return n
}

// SymbolNames returns the event alphabet recorded in the first segment's
// symbol table (empty for an empty trace) — what rvquery prints when the
// query spec does not match the recording.
func (r *Reader) SymbolNames() []string {
	if len(r.segs) == 0 {
		return nil
	}
	names := make([]string, len(r.segs[0].tab.syms))
	for i, s := range r.segs[0].tab.syms {
		names[i] = s.Name
	}
	return names
}

// pivotIDs returns segment si's pivot index, ascending.
func (r *Reader) pivotIDs(si int) []uint64 {
	return r.pivots[r.segs[si].pivLo:r.segs[si].pivHi]
}

// PivotIDs returns the union of the per-segment pivot indexes, ascending:
// every slice (pivot object) the trace contains.
func (r *Reader) PivotIDs() []uint64 {
	if len(r.pivots) == 0 {
		return nil
	}
	ids := slices.Clone(r.pivots)
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Record is one decoded trace record, as delivered by Scan. For an event
// record Free is false, Sym indexes the segment's symbol table and IDs
// bind the symbol's parameters in ascending parameter order; for a death
// record Free is true, Sym is -1 and IDs are the dying objects. IDs is a
// shared buffer, valid only for the duration of the callback.
type Record struct {
	Free bool
	Sym  int
	IDs  []uint64
}

// Scan decodes every record across the intact segments in stream order
// and hands each to fn; a non-nil return stops the scan and is returned.
// Traces written by Writer carry an identical symbol table in every
// segment, so Sym is stable across the whole scan; SymbolNames resolves
// it.
func (r *Reader) Scan(fn func(Record) error) error {
	src := source{r: r}
	defer src.close()
	var ids []uint64
	for si := range r.segs {
		seg := &r.segs[si]
		recs, err := src.load(si)
		if err != nil {
			return fmt.Errorf("trace: segment %d: %w", si, err)
		}
		d := wire.Cursor{Buf: recs}
		for rec := uint64(0); rec < seg.records; rec++ {
			var sym int
			if sym, ids = d.Record(ids[:0], seg.tab.arity); d.Err != nil {
				return fmt.Errorf("trace: segment %d: %w", si, d.Err)
			}
			if err := fn(Record{Free: sym < 0, Sym: sym, IDs: ids}); err != nil {
				return err
			}
		}
	}
	return nil
}

// PivotSegments returns, for each pivot ID, how many segments index it —
// the slice's footprint across the trace, and hence how much a selective
// query for that slice can skip. Cheap: index only, no file read.
func (r *Reader) PivotSegments() map[uint64]int {
	counts := map[uint64]int{}
	for _, id := range r.pivots {
		counts[id]++
	}
	return counts
}
