package trace

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/shard"
	"rvgo/internal/wire"
)

// WriterOptions configures a trace Writer. The zero value is ready to use.
type WriterOptions struct {
	// SegmentRecords rotates the current segment after this many records
	// (events + frees). 0 = DefaultSegmentRecords.
	SegmentRecords int
	// Metrics, when non-nil, receives the writer's telemetry: sealed
	// segments, records, bytes, and fsync latency. Updates happen on the
	// seal and fsync cold paths only — the per-record append path is
	// untouched.
	Metrics *metrics.TraceSeries
}

// DefaultSegmentRecords is the default segment rotation threshold. Small
// enough that pivot-index skipping has segments to skip on million-event
// traces, large enough that the per-segment header is noise.
const DefaultSegmentRecords = 1 << 16

// syncInterval is the cadence of the background fsync goroutine.
const syncInterval = 200 * time.Millisecond

// Writer appends a monitored event stream to a segment file. Methods are
// safe for concurrent use (a Recorder calls them from whatever goroutine
// dispatches events); records are buffered in memory until the current
// segment rotates, and a background goroutine fsyncs sealed bytes so a
// crash loses at most the open segment — which Open then truncates
// cleanly. The first error is sticky: the writer writes nothing after it,
// and every later call returns it.
type Writer struct {
	mu sync.Mutex
	f  *os.File

	pivot    int         // pivot parameter, -1 when none/unshardable
	binds    []bool      // per symbol: D(sym) contains pivot
	pivotPos []int       // per symbol: index of pivot ID in the record's ID list
	maskOf   []param.Set // per symbol: D(sym)
	head     []byte      // pre-encoded symbol table (identical per segment)
	segMax   int

	rec       wire.Enc            // encoded records of the open segment
	pivots    map[uint64]struct{} // pivot IDs bound in the open segment
	broadcast uint64
	events    uint64
	records   uint64

	err    error
	closed bool

	met *metrics.TraceSeries // nil-safe when telemetry is off

	syncReq  chan struct{}
	syncDone chan struct{}
}

// CreateForSpec opens a trace for recording a monitored runtime: the
// symbol table is the spec's event alphabet and the pivot is the spec's
// pivot (shard.Pivot). That pivot selection is the single source of
// truth for both the online sharded runtime and the recorded index, so a
// slice the index names is a slice the sharded runtime routes to one
// shard. An unshardable spec records without a
// pivot index: the trace is complete, just not slice-skippable.
func CreateForSpec(path string, spec *monitor.Spec, opts WriterOptions) (*Writer, error) {
	if spec == nil {
		return nil, fmt.Errorf("trace: CreateForSpec with nil spec")
	}
	pivot, err := shard.Pivot(spec)
	if err != nil {
		pivot = -1
	}
	syms := make([]SymbolDef, len(spec.Events))
	for i, ev := range spec.Events {
		syms[i] = SymbolDef{Name: ev.Name, Params: ev.Params}
	}
	return Create(path, syms, pivot, opts)
}

// Create opens path for writing (truncating any previous trace) and writes
// the file header. syms is the recorder's event alphabet; pivot is the
// parameter indexed per segment for slice skipping, or -1 for none.
func Create(path string, syms []SymbolDef, pivot int, opts WriterOptions) (*Writer, error) {
	if len(syms) == 0 {
		return nil, fmt.Errorf("trace: Create with empty symbol table")
	}
	if pivot < -1 || pivot >= param.MaxParams {
		return nil, fmt.Errorf("trace: pivot parameter %d out of range", pivot)
	}
	if opts.SegmentRecords <= 0 {
		opts.SegmentRecords = DefaultSegmentRecords
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(append([]byte(fileMagic), Version)); err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		f:        f,
		pivot:    pivot,
		binds:    make([]bool, len(syms)),
		pivotPos: make([]int, len(syms)),
		maskOf:   make([]param.Set, len(syms)),
		segMax:   opts.SegmentRecords,
		pivots:   map[uint64]struct{}{},
		met:      opts.Metrics,
		syncReq:  make(chan struct{}, 1),
		syncDone: make(chan struct{}),
	}
	for sym, sd := range syms {
		w.maskOf[sym] = sd.Params
		w.binds[sym] = pivot >= 0 && sd.Params.Has(pivot)
		if w.binds[sym] {
			w.pivotPos[sym] = pivotPos(sd.Params, pivot)
		}
	}
	var he wire.Enc
	encodeSymbols(&he, syms)
	he.I(int64(pivot))
	w.head = he
	go w.syncLoop()
	return w, nil
}

// syncLoop fsyncs sealed bytes in the background: on every rotation signal
// and on a timer — so a steady stream reaches disk even between rotations.
func (w *Writer) syncLoop() {
	defer close(w.syncDone)
	tick := time.NewTicker(syncInterval)
	defer tick.Stop()
	for {
		select {
		case _, ok := <-w.syncReq:
			if !ok {
				return
			}
		case <-tick.C:
		}
		w.syncFile()
	}
}

// syncFile fsyncs the trace file, recording the latency.
func (w *Writer) syncFile() error {
	start := time.Now()
	err := w.f.Sync()
	if w.met != nil {
		w.met.FsyncSeconds.Observe(time.Since(start).Seconds())
	}
	return err
}

// EventIDs appends one parametric event given its object IDs in ascending
// parameter order.
func (w *Writer) EventIDs(sym int, ids []uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.check(sym, len(ids)); err != nil {
		return err
	}
	w.rec.EventRecord(sym, ids)
	if w.binds[sym] {
		w.pivots[ids[w.pivotPos[sym]]] = struct{}{}
	} else {
		w.broadcast++
	}
	w.events++
	return w.push()
}

// FreeIDs appends an object-death record at the current stream position
// (several, for a death of more than wire.MaxDeathIDs objects).
func (w *Writer) FreeIDs(ids []uint64) error {
	if len(ids) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.closed {
		return w.state()
	}
	for len(ids) > 0 {
		ids = w.rec.DeathRecord(ids)
		if err := w.push(); err != nil {
			return err
		}
	}
	return nil
}

// check refuses every record once the writer has failed or closed, and
// makes a malformed record the writer's first error. Caller holds w.mu.
func (w *Writer) check(sym, n int) error {
	if w.err != nil || w.closed {
		return w.state()
	}
	if sym < 0 || sym >= len(w.maskOf) {
		w.err = fmt.Errorf("trace: symbol %d out of range", sym)
	} else if n != w.maskOf[sym].Count() {
		w.err = fmt.Errorf("trace: event %d wants %d ids, got %d", sym, w.maskOf[sym].Count(), n)
	}
	return w.err
}

func (w *Writer) state() error {
	if w.err != nil {
		return w.err
	}
	return fmt.Errorf("trace: writer is closed")
}

// push accounts one appended record and rotates the segment at the
// threshold. Caller holds w.mu.
func (w *Writer) push() error {
	w.records++
	if int(w.records) >= w.segMax {
		return w.seal()
	}
	return nil
}

// seal encodes the open segment, writes it and signals the fsync
// goroutine. Caller holds w.mu; an empty segment is a no-op.
func (w *Writer) seal() error {
	if w.records == 0 {
		return nil
	}
	e := append(wire.Enc(nil), w.head...)
	ids := make([]uint64, 0, len(w.pivots))
	for id := range w.pivots {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	e.U(uint64(len(ids)))
	var prev uint64
	for _, id := range ids {
		e.U(id - prev)
		prev = id
	}
	e.U(w.broadcast)
	e.U(w.events)
	e.U(w.records)
	e = append(e, w.rec...)
	if len(e) > MaxSegment {
		w.err = fmt.Errorf("trace: segment of %d bytes exceeds MaxSegment", len(e))
		return w.err
	}
	var hdr [4 + binary.MaxVarintLen64]byte
	n := copy(hdr[:], segMagic)
	n += binary.PutUvarint(hdr[n:], uint64(len(e)))
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc32.ChecksumIEEE(e))
	for _, b := range [][]byte{hdr[:n], e, foot[:]} {
		if _, err := w.f.Write(b); err != nil {
			w.err = err
			return err
		}
	}
	if w.met != nil {
		w.met.Segments.Inc()
		w.met.Records.Add(w.records)
		w.met.Bytes.Add(uint64(n + len(e) + len(foot)))
	}
	w.rec = w.rec[:0]
	clear(w.pivots)
	w.broadcast, w.events, w.records = 0, 0, 0
	select {
	case w.syncReq <- struct{}{}:
	default:
	}
	return nil
}

// Flush seals the open segment (if any) to disk. It does not fsync.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.state()
	}
	if w.err != nil {
		return w.err
	}
	return w.seal()
}

// Err returns the writer's first error: nothing was written after it.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close seals the open segment, stops the background fsync goroutine,
// fsyncs and closes the file. It returns the writer's first error, which
// Err keeps reporting.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	if w.err == nil {
		_ = w.seal() // a failure is w.err
	}
	close(w.syncReq)
	w.mu.Unlock()
	<-w.syncDone
	syncErr := w.syncFile()
	closeErr := w.f.Close()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = cmp.Or(syncErr, closeErr)
	}
	return w.err
}

// EnsureDir creates the parent directory of a trace path; shared by the
// cmd-level -record/-trace flag validation.
func EnsureDir(path string) error {
	dir := filepath.Dir(path)
	if dir == "" || dir == "." {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}
