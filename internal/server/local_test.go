package server

import (
	"fmt"
	"strings"
	"testing"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
	"rvgo/internal/wire"
)

// openTestLocal opens a local backend the way a session handshake does,
// without a connection: the events below produce no verdicts.
func openTestLocal(t *testing.T, shards uint64) *local {
	t.Helper()
	h := wire.Hello{
		Version:  wire.Version,
		SpecKind: wire.SpecProp,
		Spec:     "UnsafeIter",
		GC:       byte(monitor.GCCoenable),
		Creation: byte(monitor.CreateEnable),
		Shards:   shards,
	}
	compiled, err := compileHello(h)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Options{})
	s := &Session{ID: 1, Spec: compiled, Hello: h, srv: srv}
	s.series = metrics.NewServerSeries(srv.reg, compiled.Name)
	b, err := openLocal(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b.(*local)
}

// TestSessionTableHoldsLiveObjects: the remote-ID table costs what the
// session holds. 100 000 IDs churn through a session with at most 64 alive
// at once — each mentioned by an event and then freed, and every seventh
// freed without ever being mentioned. The live table never exceeds 64
// entries, the freed set never exceeds one word per 64 IDs, and the death
// of every freed ID stays final: an event naming an ID freed 90 000 IDs
// earlier is refused, mentioned or not. A Free that names one ID twice
// kills it once.
func TestSessionTableHoldsLiveObjects(t *testing.T) {
	for _, shards := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := openTestLocal(t, shards)
			update := -1
			for i, ev := range b.s.Spec.Events {
				if ev.Name == "update" {
					update = i
				}
			}
			if update < 0 {
				t.Fatal("UnsafeIter has no update event")
			}

			const n, window = 100_000, 64
			var live []uint64
			for id := uint64(1); id <= n; id++ {
				if id%7 == 0 {
					if err := b.Free([]uint64{id}); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if len(live) == window {
					if err := b.Free(live[:1]); err != nil {
						t.Fatal(err)
					}
					live = live[1:]
				}
				if err := b.Event(update, []uint64{id}); err != nil {
					t.Fatalf("event on fresh ID %d: %v", id, err)
				}
				live = append(live, id)
				if len(b.objects) > window {
					t.Fatalf("after ID %d the live table holds %d entries, want ≤ %d", id, len(b.objects), window)
				}
				if len(b.freed) > n/64+1 {
					t.Fatalf("after ID %d the freed set holds %d words, want ≤ %d", id, len(b.freed), n/64+1)
				}
			}

			for _, id := range []uint64{10_001, 10_003} { // mentioned, never mentioned
				err := b.Event(update, []uint64{id})
				if err == nil || !strings.Contains(err.Error(), "after its free") {
					t.Errorf("event on ID %d freed 90 000 IDs earlier: err = %v, want the after-its-free refusal", id, err)
				}
			}

			victim := live[0]
			_, _, freesBefore := b.heap.Stats()
			if err := b.Free([]uint64{victim, victim}); err != nil {
				t.Fatal(err)
			}
			if err := b.Free([]uint64{victim}); err != nil {
				t.Fatal(err)
			}
			if _, _, frees := b.heap.Stats(); frees != freesBefore+1 {
				t.Errorf("freeing ID %d three times freed %d objects, want 1", victim, frees-freesBefore)
			}
			if err := b.Event(update, []uint64{victim}); err == nil || !strings.Contains(err.Error(), "after its free") {
				t.Errorf("event on twice-freed ID %d: err = %v, want the after-its-free refusal", victim, err)
			}
			if err := b.Event(update, []uint64{live[1]}); err != nil {
				t.Errorf("event on live ID %d after the double free: %v", live[1], err)
			}
			if heapLive, _, _ := b.heap.Stats(); heapLive != len(b.objects) {
				t.Errorf("session heap holds %d live objects, table %d", heapLive, len(b.objects))
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
