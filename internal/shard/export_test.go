package shard

import "rvgo/internal/monitor"

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
