package trace

import (
	"path/filepath"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/props"
)

// nullRuntime absorbs dispatches: the decode-only bound of replay.
type nullRuntime struct {
	spec   *monitor.Spec
	events uint64
}

func (n *nullRuntime) Spec() *monitor.Spec                { return n.spec }
func (n *nullRuntime) Dispatch(sym int, _ param.Instance) { n.events++ }
func (n *nullRuntime) Free(...heap.Ref)                   {}
func (n *nullRuntime) Barrier()                           {}
func (n *nullRuntime) Flush()                             {}
func (n *nullRuntime) Stats() (st monitor.Stats)          { st.Events = n.events; return }
func (n *nullRuntime) Close()                             {}

// benchTrace records a UNSAFEITER workload of about n events.
func benchTrace(b *testing.B, n int) (string, uint64) {
	b.Helper()
	spec, err := props.Build("UnsafeIter")
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.rvt")
	w, err := CreateForSpec(path, spec, WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	create, _ := spec.Symbol("create")
	update, _ := spec.Symbol("update")
	next, _ := spec.Symbol("next")
	var events uint64
	id := uint64(1)
	for events < uint64(n) {
		c := id
		id++
		for k := 0; k < 16; k++ {
			it := id
			id++
			w.EventIDs(create, []uint64{c, it})
			w.EventIDs(next, []uint64{it})
			if k%4 == 3 {
				w.EventIDs(update, []uint64{c})
				w.EventIDs(next, []uint64{it})
				events++
			}
			w.FreeIDs([]uint64{it})
			events += 3
		}
		w.FreeIDs([]uint64{c})
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path, events
}

// BenchmarkReplayDecode is the decode-only bound: the segment scanner and
// record loop against a runtime that absorbs dispatches.
func BenchmarkReplayDecode(b *testing.B) {
	path, events := benchTrace(b, 1<<16)
	spec, _ := props.Build("UnsafeIter")
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(events))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := &nullRuntime{spec: spec}
		if _, err := r.Replay(rt, ReplayOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayEngine is the full retro-checking rate: decode plus the
// sequential engine monitoring every event under coenable GC.
func BenchmarkReplayEngine(b *testing.B) {
	for _, prop := range []string{"UnsafeIter", "HasNext"} {
		b.Run(prop, func(b *testing.B) {
			path, events := benchTrace(b, 1<<16)
			spec, err := props.Build(prop)
			if err != nil {
				b.Fatal(err)
			}
			r, err := Open(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(events))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Replay(eng, ReplayOptions{}); err != nil {
					b.Fatal(err)
				}
				eng.Flush()
				eng.Close()
			}
		})
	}
}

// BenchmarkReplayPivotFiltered is the slice-selective rate: query one
// pivot object; the per-segment index skips everything else. SetBytes
// counts the full trace — skipped events are checked (proven irrelevant
// by the index), which is the point of the pivot index.
func BenchmarkReplayPivotFiltered(b *testing.B) {
	path, events := benchTrace(b, 1<<16)
	spec, _ := props.Build("UnsafeIter")
	r, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	ids := r.PivotIDs()
	if len(ids) == 0 {
		b.Fatal("no pivot index")
	}
	want := []uint64{ids[len(ids)/2]}
	b.SetBytes(int64(events))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := monitor.New(spec, monitor.Options{GC: monitor.GCCoenable, Creation: monitor.CreateEnable})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Replay(eng, ReplayOptions{Pivots: want}); err != nil {
			b.Fatal(err)
		}
		eng.Flush()
		eng.Close()
	}
}
