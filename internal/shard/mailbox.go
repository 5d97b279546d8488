package shard

import (
	"sync"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// event is one record in flight to a shard: a parametric event over the
// shard's views, or — free non-nil — an object death, the point in the
// shard's stream at which that view dies.
type event struct {
	sym  int
	inst param.Instance
	free *view
}

// message is one mailbox element: a batch of records, or a control request
// executed by the worker between batches (stats snapshots, flushes,
// barriers). Both ride the same FIFO, so by the time a control request
// executes, every record enqueued before it has been processed. Batches
// travel as *[]event so the pool round-trip reuses one boxed header
// instead of re-boxing the slice into an interface on every Get/Put.
type message struct {
	batch *[]event
	ctl   func(*monitor.Engine)
	done  chan<- struct{}
}

// batchPool recycles record batches between producers and workers without
// taking any worker lock (a worker must never need a producer-side lock to
// make progress, or a blocking Dispatch holding that lock would deadlock).
var batchPool = sync.Pool{New: func() any { return new([]event) }}

func getBatch(capHint int) *[]event {
	p := batchPool.Get().(*[]event)
	if cap(*p) < capHint {
		*p = make([]event, 0, capHint)
	}
	*p = (*p)[:0]
	return p
}

func putBatch(p *[]event) {
	clear(*p)
	*p = (*p)[:0]
	batchPool.Put(p)
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
	pending *[]event // open batch, always len < batchSize outside mu
	mailbox chan message
	stopped bool // under mu: the mailbox is closed
	batchSz int
	// per-shard series (nil-safe when telemetry is off).
	metDepth       *metrics.Gauge
	metBatches     *metrics.Counter
	metBatchEvents *metrics.Counter
}

// run is the shard goroutine: drain batches in FIFO order, execute control
// requests in between. A free record kills this shard's view of the object
// and nothing else, so the death takes effect between exactly the records
// the producer put it between.
func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer w.metDepth.Set(0) // a stopped worker has no backlog
	for msg := range w.mailbox {
		if msg.ctl != nil {
			msg.ctl(w.eng)
			close(msg.done)
			continue
		}
		for _, ev := range *msg.batch {
			if ev.free != nil {
				ev.free.state.Store(viewDead)
				continue
			}
			w.eng.Dispatch(ev.sym, ev.inst)
		}
		putBatch(msg.batch)
		w.metDepth.Set(int64(len(w.mailbox)))
	}
}

// ship sends the open batch to the mailbox (possibly blocking — that is
// the backpressure) and starts a fresh one, recording the batch shape and
// the post-send backlog. Callers hold mu.
func (w *worker) ship() {
	n := len(*w.pending)
	w.mailbox <- message{batch: w.pending}
	w.pending = getBatch(w.batchSz)
	w.metBatches.Inc()
	w.metBatchEvents.Add(uint64(n))
	w.metDepth.Set(int64(len(w.mailbox)))
}

// enqueue appends one record to the open batch, shipping the batch to the
// mailbox when it fills. The mailbox send blocks while holding mu — that is
// the backpressure: further producers queue on the mutex until the worker
// drains a batch.
func (w *worker) enqueue(ev event) {
	w.mu.Lock()
	w.enqueueLocked(ev)
	w.mu.Unlock()
}

// canAccept reports whether one more record fits without blocking: either
// the open batch has room to spare, or the mailbox can take the filled
// batch. Callers must hold mu.
func (w *worker) canAccept() bool {
	return len(*w.pending)+1 < w.batchSz || len(w.mailbox) < cap(w.mailbox)
}

// enqueueLocked is enqueue for callers already holding mu (after a
// positive canAccept the mailbox send is guaranteed not to block).
func (w *worker) enqueueLocked(ev event) {
	*w.pending = append(*w.pending, ev)
	if len(*w.pending) >= w.batchSz {
		w.ship()
	}
}

// flushLocked ships the open batch even if partially filled; callers hold
// mu.
func (w *worker) flushLocked() {
	if len(*w.pending) > 0 {
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
