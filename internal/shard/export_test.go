package shard

import "rvgo/internal/monitor"

// NewSized is New with batches of batch records and mailboxes depth
// batches deep; 0 keeps the product size (batchSize, mailboxDepth).
func NewSized(spec *monitor.Spec, opts Options, batch, depth int) (*Runtime, error) {
	if batch == 0 {
		batch = batchSize
	}
	if depth == 0 {
		depth = mailboxDepth
	}
	return newSized(spec, opts, batch, depth)
}

// Park holds every worker behind a blocking control request until release
// is called: whatever the producer does meanwhile, no record is processed.
// The mailboxes must be deep enough for it, or Dispatch blocks for good.
func (rt *Runtime) Park() (release func()) {
	gate := make(chan struct{})
	for _, w := range rt.workers {
		entered := make(chan struct{})
		w.control(func(*monitor.Engine) { close(entered); <-gate })
		<-entered
	}
	return func() { close(gate) }
}
