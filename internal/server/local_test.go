package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
	s := &Session{ID: 1, Spec: compiled, Hello: h, srv: srv, w: wire.NewWriter(io.Discard)}
	s.series = metrics.NewServerSeries(srv.reg, compiled.Name)
	b, err := openLocal(s)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b.(*local)
}

// objectRecords reads what a session's runtime holds per object: the object
// table records of its engine (summed over shards), and how many of them are
// dead objects awaiting the sweep.
func objectRecords(b *local) (records, dead int) {
	if b.srt != nil {
		return b.srt.ObjectRecords()
	}
	return b.rt.(*monitor.Engine).ObjectRecords()
}

// symOf returns the index of the named event of the session's spec.
func symOf(t *testing.T, b *local, name string) int {
	t.Helper()
	sym, ok := b.s.Spec.Symbol(name)
	if !ok {
		t.Fatalf("%s has no event %q", b.s.Spec.Name, name)
	}
	return sym
}

// TestSessionTableHoldsLiveObjects: a session costs what it holds. 100 000
// IDs churn through a session with at most 64 alive at once — each
// mentioned by an event and then freed, and every seventh freed without ever
// being mentioned. The engine's object table never holds more than the 64
// live objects' records plus the records of dead objects its sweeps have yet
// to release, the freed set never exceeds one word per 64 IDs, and the
// death of every freed ID stays final: an event naming an ID freed 90 000
// IDs earlier is refused, mentioned or not. A Free that names one ID twice,
// then a third Free of it, takes exactly one object out of the session.
// Every lane releases every freed ID exactly once, and no live one.
func TestSessionTableHoldsLiveObjects(t *testing.T) {
	for _, shards := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			b := openTestLocal(t, shards)
			var out bytes.Buffer
			b.s.w = wire.NewWriter(&out)
			update := symOf(t, b, "update")

			const n, window = 100_000, 64
			var live []uint64
			maxDead := 0
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
				if id%101 == 0 {
					records, dead := objectRecords(b)
					if records-dead > window {
						t.Fatalf("after ID %d the engine holds %d records, %d of them dead: %d live, want ≤ %d", id, records, dead, records-dead, window)
					}
					maxDead = max(maxDead, dead)
				}
				if len(b.freed) > n/64+1 {
					t.Fatalf("after ID %d the freed set holds %d words, want ≤ %d", id, len(b.freed), n/64+1)
				}
			}
			// The sweeps release dead records: each engine sweeps at least
			// once per 4096 events (the default period), and each event here
			// names one object, so no engine can hold more dead records than
			// that, however many IDs go by.
			if maxDead > int(shards)*4096 {
				t.Errorf("up to %d dead records awaited a sweep, want ≤ %d", maxDead, shards*4096)
			}

			for _, id := range []uint64{10_001, 10_003} { // mentioned, never mentioned
				err := b.Event(update, []uint64{id})
				if err == nil || !strings.Contains(err.Error(), "after its free") {
					t.Errorf("event on ID %d freed 90 000 IDs earlier: err = %v, want the after-its-free refusal", id, err)
				}
			}

			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if records, dead := objectRecords(b); records != len(live) || dead != 0 {
				t.Fatalf("after Flush the engine holds %d records, %d dead; want the %d live objects' only", records, dead, len(live))
			}
			victim := live[0]
			if err := b.Free([]uint64{victim, victim}); err != nil {
				t.Fatal(err)
			}
			if err := b.Free([]uint64{victim}); err != nil {
				t.Fatal(err)
			}
			if err := b.Event(update, []uint64{victim}); err == nil || !strings.Contains(err.Error(), "after its free") {
				t.Errorf("event on twice-freed ID %d: err = %v, want the after-its-free refusal", victim, err)
			}
			if err := b.Event(update, []uint64{live[1]}); err != nil {
				t.Errorf("event on live ID %d after the double free: %v", live[1], err)
			}
			if err := b.Flush(); err != nil {
				t.Fatal(err)
			}
			if records, dead := objectRecords(b); records != len(live)-1 || dead != 0 {
				t.Errorf("freeing ID %d three times left %d records, %d dead; want %d live", victim, records, dead, len(live)-1)
			}

			if err := b.s.answer(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
			released := map[uint64]map[uint64]int{} // ID → lane → releases
			r := wire.NewReader(&out)
			var msg wire.Msg
			for r.Next(&msg) == nil {
				for _, id := range msg.Release.IDs {
					if released[id] == nil {
						released[id] = map[uint64]int{}
					}
					released[id][msg.Release.Lane]++
				}
			}
			for _, id := range live[1:] {
				if released[id] != nil {
					t.Fatalf("live ID %d was released: %v", id, released[id])
				}
			}
			for id := uint64(1); id <= n; id++ {
				if id < live[1] || id%7 == 0 {
					for lane := range shards {
						if k := released[id][lane]; k != 1 {
							t.Fatalf("freed ID %d was released %d times by lane %d, want once", id, k, lane)
						}
					}
				}
			}
		})
	}
}

// TestSessionIngestNoAlloc: a warm session, sequential or on two shards,
// allocates nothing per generation of fresh objects — create, next and
// update over a new collection and iterator, then their free and a credit
// grant; the engines' releases of the pair queue per lane and leave in
// Release frames a batch at a time. The IDs go straight into the engines'
// object tables, whose records and θ-records recycle; on shards they ride
// the batches' ID columns; the release queue and the frames reuse their
// buffers.
func TestSessionIngestNoAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shards := range []uint64{1, 2} {
		b := openTestLocal(t, shards)
		var out bytes.Buffer
		b.s.w = wire.NewWriter(&out)
		create, next, update := symOf(t, b, "create"), symOf(t, b, "next"), symOf(t, b, "update")
		ci, i, c := make([]uint64, 2), make([]uint64, 1), make([]uint64, 1)
		id := uint64(0)
		generation := func() {
			id += 2
			ci[0], ci[1], i[0], c[0] = id, id+1, id+1, id
			if b.Event(create, ci) != nil || b.Event(next, i) != nil || b.Event(update, c) != nil || b.Free(ci) != nil {
				t.Fatal("session refused a fresh object")
			}
			b.s.ungrant = 3
			if b.s.grantCredit() != nil {
				t.Fatal("credit grant failed")
			}
			out.Reset()
		}
		for range 20_000 {
			generation()
		}
		if avg := testing.AllocsPerRun(4096, generation); avg != 0 {
			t.Errorf("%d shards: session generation allocates %.2f times, want 0", shards, avg)
		}
		if st, _ := b.Stats(); st.Collected < 20_000 {
			t.Fatalf("%d shards: only %d monitors of 20 000+ dead generations collected: %+v", shards, st.Collected, st)
		}
		// The frees came back: after a Flush every lane has released the
		// last generation's objects, and the ack carries them.
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := b.s.answer(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		released := map[uint64]int{}
		r := wire.NewReader(&out)
		var msg wire.Msg
		for r.Next(&msg) == nil {
			if msg.Type == wire.TRelease {
				for _, rid := range msg.Release.IDs {
					released[rid]++
				}
			}
		}
		if released[id] != int(shards) || released[id+1] != int(shards) {
			t.Errorf("%d shards: the last generation's objects %d and %d were released %d and %d times, want once per lane", shards, id, id+1, released[id], released[id+1])
		}
	}
}

// TestSessionVerdictNoAlloc: a warm session, sequential or on two shards,
// allocates nothing per generation that ends in a verdict — create, update
// and next over a fresh collection and iterator, one UnsafeIter match
// naming both, then their free and a credit grant. The session's verdict
// handler reads the objects' IDs off the verdict (Verdict.Key) into its
// scratch and writes the Verdict frame into the reused buffer; the engines
// make no ref for the objects they name.
func TestSessionVerdictNoAlloc(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm = 20_000
	for _, shards := range []uint64{1, 2} {
		b := openTestLocal(t, shards)
		var out bytes.Buffer
		b.s.w = wire.NewWriter(&out)
		create, next, update := symOf(t, b, "create"), symOf(t, b, "next"), symOf(t, b, "update")
		ci, i, c := make([]uint64, 2), make([]uint64, 1), make([]uint64, 1)
		id := uint64(0)
		generation := func() {
			id += 2
			ci[0], ci[1], i[0], c[0] = id, id+1, id+1, id
			if b.Event(create, ci) != nil || b.Event(update, c) != nil || b.Event(next, i) != nil || b.Free(ci) != nil {
				t.Fatal("session refused a fresh object")
			}
			b.s.ungrant = 3
			if b.s.grantCredit() != nil {
				t.Fatal("credit grant failed")
			}
			out.Reset()
		}
		for range warm {
			generation()
		}
		if avg := testing.AllocsPerRun(4096, generation); avg != 0 {
			t.Errorf("%d shards: verdict generation allocates %.2f times, want 0", shards, avg)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if st, _ := b.Stats(); st.GoalVerdicts != id/2 {
			t.Fatalf("%d shards: %d verdicts over %d generations, want one each", shards, st.GoalVerdicts, id/2)
		}
		// A verdict reaches the wire naming its generation's pair.
		out.Reset()
		id += 2
		ci[0], ci[1], i[0], c[0] = id, id+1, id+1, id
		if b.Event(create, ci) != nil || b.Event(update, c) != nil || b.Event(next, i) != nil || b.Flush() != nil {
			t.Fatal("session refused the last generation")
		}
		if err := b.s.answer(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
		var got []uint64
		r := wire.NewReader(&out)
		var msg wire.Msg
		for r.Next(&msg) == nil {
			if msg.Type == wire.TVerdict {
				got = append(got, msg.Verdict.IDs...)
			}
		}
		if len(got) != 2 || got[0] != id || got[1] != id+1 {
			t.Errorf("%d shards: the verdict named %v, want [%d %d]", shards, got, id, id+1)
		}
	}
}

// pipeListener hands Serve the server ends of in-memory connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// heapBytes is the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// idleSessionFloor pins what an idle sequential session costs the server's
// heap once its Hello is acknowledged: the session, its wire buffers (32 KiB
// each way), the compiled spec and the backend — a sequential engine and
// the freed-ID set. Measured at 71 700 B on linux/amd64 (Go 1.24), two
// thirds of it the wire buffers; the bound leaves 25 %.
const idleSessionFloor = 71_700 * 5 / 4

// TestIdleSessionFloor: 16 sequential sessions, each opened by a Hello
// over an in-memory connection and then left idle, cost the server at most
// idleSessionFloor heap bytes each, on average. The client ends and their
// buffers exist before the first reading, and one session opened before it
// interns the tenant's metric series, which every later session shares.
func TestIdleSessionFloor(t *testing.T) {
	if raceBuild {
		t.Skip("heap sizes are not meaningful under -race")
	}
	const sessions = 16
	srv := New(Options{})
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	type client struct {
		conn net.Conn
		w    *wire.Writer
		r    *wire.Reader
	}
	clients := make([]client, sessions+1)
	servers := make([]net.Conn, sessions+1)
	for i := range clients {
		c, s := net.Pipe()
		clients[i], servers[i] = client{c, wire.NewWriter(c), wire.NewReader(c)}, s
	}
	h := wire.Hello{
		Version:  wire.Version,
		SpecKind: wire.SpecProp,
		Spec:     "UnsafeIter",
		GC:       byte(monitor.GCCoenable),
		Creation: byte(monitor.CreateEnable),
		Shards:   1,
	}
	var msg wire.Msg
	open := func(i int) {
		l.conns <- servers[i]
		cl := clients[i]
		if err := cl.w.WriteHello(h); err != nil {
			t.Fatal(err)
		}
		if err := cl.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := cl.r.Next(&msg); err != nil || msg.Type != wire.THelloAck {
			t.Fatalf("session %d: got frame %d, err %v; want the HelloAck", i, msg.Type, err)
		}
	}
	open(sessions)
	before := heapBytes()
	for i := range sessions {
		open(i)
	}
	per := int64(heapBytes()-before) / sessions
	t.Logf("an idle sequential session holds %d heap bytes", per)
	if per > idleSessionFloor {
		t.Errorf("an idle sequential session holds %d heap bytes, want ≤ %d", per, idleSessionFloor)
	}
	for _, cl := range clients {
		cl.conn.Close()
	}
	srv.Shutdown(time.Second)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
