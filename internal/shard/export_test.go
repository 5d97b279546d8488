package shard

import (
	"fmt"
	"sync/atomic"

	"rvgo/internal/monitor"
)

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

// FlagRef is a caller-owned Ref with a bare atomic death flag — what
// internal/bench and trace.Replay hand the runtime, and kill themselves the
// instant Free returns.
type FlagRef struct {
	Ident uint64
	Name  string
	dead  atomic.Bool
}

func (r *FlagRef) ID() uint64 { return r.Ident }
func (r *FlagRef) Kill()      { r.dead.Store(true) }
func (r *FlagRef) Label() string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("f%d", r.Ident)
}
func (r *FlagRef) Alive() bool { return !r.dead.Load() }
