package shard

import (
	"sync"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// event is one record of a shard batch: a parametric event over the
// caller's own refs (at == refs), a parametric event over objects named by
// ID, or — sym == freeSym — an object death, the point in the shard's
// stream at which its engine applies it. The IDs of the last two sit in
// the batch's ID column from index at on: the event's D(sym) of them, a
// death's one. Keeping them out of the record keeps the record at the
// instance plus one word, whatever the entry.
type event struct {
	sym  int32
	at   int32
	inst param.Instance
}

const (
	freeSym int32 = -1 // the sym of a free record
	refs    int32 = -1 // the at of an event over the caller's refs
)

// batch is one mailbox batch: the records in stream order and the ID
// column they index.
type batch struct {
	recs []event
	ids  []uint64
}

// message is one mailbox element: a batch of records, or a control request
// executed by the worker between batches (stats snapshots, flushes,
// barriers). Both ride the same FIFO, so by the time a control request
// executes, every record enqueued before it has been processed.
type message struct {
	batch *batch
	ctl   func(*monitor.Engine)
	done  chan<- struct{}
}

// batchPool recycles record batches between producers and workers without
// taking any worker lock (a worker must never need a producer-side lock to
// make progress, or a blocking Dispatch holding that lock would deadlock).
var batchPool = sync.Pool{New: func() any { return new(batch) }}

func getBatch(capHint int) *batch {
	b := batchPool.Get().(*batch)
	if cap(b.recs) < capHint {
		b.recs = make([]event, 0, capHint)
	}
	return b
}

func putBatch(b *batch) {
	clear(b.recs)
	b.recs, b.ids = b.recs[:0], b.ids[:0]
	batchPool.Put(b)
}

// worker is one shard: a single-threaded monitor.Engine behind a bounded
// mailbox of record batches. All mailbox sends happen while holding mu, so
// the channel's free capacity can only grow between a producer's check and
// its send; the worker only receives and never takes mu — nor anything
// else another worker or a producer could hold.
type worker struct {
	idx     int
	eng     *monitor.Engine
	mu      sync.Mutex
	pending *batch // open batch, always len(recs) < batchSz outside mu
	mailbox chan message
	stopped bool // under mu: the mailbox is closed
	batchSz int
	// rel gathers the IDs the engine releases while the worker runs one
	// message; onRelease (nil without Options.OnRelease) hands them on.
	rel       []uint64
	onRelease func(ids []uint64)
	// per-shard series (nil-safe when telemetry is off).
	metDepth       *metrics.Gauge
	metBatches     *metrics.Counter
	metBatchEvents *metrics.Counter
}

// run is the shard goroutine: drain batches in FIFO order, execute control
// requests in between. Its engine holds the objects of ref events without
// asking them whether they live; a free record kills the object in this
// engine only, so the death takes effect between exactly the records the
// producer put it between, and no worker waits for another.
func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer w.metDepth.Set(0) // a stopped worker has no backlog
	events := w.eng.Spec().Events
	for msg := range w.mailbox {
		if msg.ctl != nil {
			msg.ctl(w.eng)
			w.release()
			close(msg.done)
			continue
		}
		b := msg.batch
		for _, ev := range b.recs {
			switch {
			case ev.at == refs:
				w.eng.DispatchHeld(int(ev.sym), ev.inst)
			case ev.sym == freeSym:
				w.eng.FreeIDs(b.ids[ev.at : ev.at+1])
			default:
				w.eng.DispatchIDs(int(ev.sym), b.ids[ev.at:int(ev.at)+events[ev.sym].Params.Count()])
			}
		}
		putBatch(b)
		w.release()
		w.metDepth.Set(int64(len(w.mailbox)))
	}
}

// release hands the IDs the engine released during one message to
// onRelease, all in one call.
func (w *worker) release() {
	if len(w.rel) > 0 {
		w.onRelease(w.rel)
		w.rel = w.rel[:0]
	}
}

// ship sends the open batch to the mailbox (possibly blocking — that is
// the backpressure) and starts a fresh one, recording the batch shape and
// the post-send backlog. Callers hold mu.
func (w *worker) ship() {
	n := len(w.pending.recs)
	w.mailbox <- message{batch: w.pending}
	w.pending = getBatch(w.batchSz)
	w.metBatches.Inc()
	w.metBatchEvents.Add(uint64(n))
	w.metDepth.Set(int64(len(w.mailbox)))
}

// canAccept reports whether one more record fits without blocking: either
// the open batch has room to spare, or the mailbox can take the filled
// batch. Callers must hold mu.
func (w *worker) canAccept() bool {
	return len(w.pending.recs)+1 < w.batchSz || len(w.mailbox) < cap(w.mailbox)
}

// enqueueLocked appends one record to the open batch, shipping the batch
// to the mailbox when it fills. The send blocks while holding mu — that is
// the backpressure: further producers queue on the mutex until the worker
// drains a batch — unless a positive canAccept came first. Callers hold
// mu.
func (w *worker) enqueueLocked(ev event, ids []uint64) {
	w.addLocked(ev, ids)
	if len(w.pending.recs) >= w.batchSz {
		w.ship()
	}
}

// addLocked appends one record to the open batch without shipping it: a
// primer, which rides in the batch of the event enqueued behind it, so an
// event costs one record's room however many primers precede it. A record
// whose at is not refs gets ids appended to the batch's ID column. Callers
// hold mu.
func (w *worker) addLocked(ev event, ids []uint64) {
	b := w.pending
	if ev.at != refs {
		ev.at = int32(len(b.ids))
		b.ids = append(b.ids, ids...)
	}
	b.recs = append(b.recs, ev)
}

// flushLocked ships the open batch even if partially filled; callers hold
// mu.
func (w *worker) flushLocked() {
	if len(w.pending.recs) > 0 {
		w.ship()
	}
}

// flush ships the open batch even if partially filled. It is the linger
// deadline's half of the race with Close: once the worker is stopped there
// is no mailbox to send on.
func (w *worker) flush() {
	w.mu.Lock()
	if !w.stopped {
		w.flushLocked()
	}
	w.mu.Unlock()
}

// stop ships what is left and closes the mailbox; the worker drains it and
// exits.
func (w *worker) stop() {
	w.mu.Lock()
	w.flushLocked()
	w.stopped = true
	close(w.mailbox)
	w.mu.Unlock()
}

// control flushes the open batch and enqueues a control request behind it,
// returning the done channel.
func (w *worker) control(ctl func(*monitor.Engine)) <-chan struct{} {
	done := make(chan struct{})
	w.mu.Lock()
	w.flushLocked()
	w.mailbox <- message{ctl: ctl, done: done}
	w.mu.Unlock()
	return done
}
