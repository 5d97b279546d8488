//go:build goexperiment.synctest

package shard

import (
	"testing"
	"testing/synctest"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
)

// TestSimIdleProducerTimeliness is TestIdleProducerTimeliness on the
// synthetic clock of a testing/synctest bubble, where no time passes but
// the clock's. The three events wait in their shard's open batch until
// the linger deadline the first of them arms; the worker applies the
// batch and its verdict comes at that same instant. So the verdict must
// come exactly one linger after the producer's last call, and not before.
// It needs the synctest experiment:
//
//	GOEXPERIMENT=synctest go test -race -count=20 -run Sim ./internal/shard
func TestSimIdleProducerTimeliness(t *testing.T) {
	spec := buildProp(t, "HasNext")
	synctest.Run(func() {
		type seen struct {
			at  time.Time
			ref heap.Ref
		}
		verdict := make(chan seen, 1)
		rt, err := New(spec, Options{
			Options: monitor.Options{GC: monitor.GCCoenable, OnVerdict: func(v monitor.Verdict) {
				select {
				case verdict <- seen{time.Now(), v.Inst.Value(0)}:
				default:
				}
			}},
			Shards: 2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer rt.Close()
		// Let the deadline the runtime is born with pass, so the events
		// arm their own.
		time.Sleep(2 * linger)
		it := heap.New().Alloc("i")
		for _, ev := range []string{"hasnexttrue", "next", "next"} {
			if err := monitor.EmitNamed(rt, ev, it); err != nil {
				t.Error(err)
				return
			}
		}
		last := time.Now()
		time.Sleep(linger - time.Nanosecond)
		synctest.Wait()
		select {
		case v := <-verdict:
			t.Errorf("the verdict came %v after the last call, before the %v linger deadline", v.at.Sub(last), linger)
			return
		default:
		}
		time.Sleep(time.Nanosecond)
		synctest.Wait()
		select {
		case v := <-verdict:
			if d := v.at.Sub(last); d != linger {
				t.Errorf("the verdict came %v after the last call, want exactly the %v linger", d, linger)
			}
			if v.ref != heap.Ref(it) {
				t.Errorf("verdict carries %T %v, want the caller's ref", v.ref, v.ref)
			}
		default:
			t.Errorf("no verdict at the %v linger deadline", linger)
		}
	})
}
