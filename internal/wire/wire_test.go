package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"rvgo/internal/conformance"
)

// encodeAll writes one frame of every message type and returns the stream.
func encodeAll(t testing.TB) ([]byte, []Msg) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Msg{
		{Type: THello, Hello: Hello{Version: Version, SpecKind: SpecProp, Spec: "HasNext", GC: 2, Creation: 0, Shards: 4, Window: 1024}},
		{Type: THello, Hello: Hello{Version: Version, SpecKind: SpecSource, Spec: "property X {...}", GC: 0, Creation: 1}},
		{Type: THelloAck, HelloAck: HelloAck{
			Session: 7, Window: 512, SpecName: "UnsafeIter",
			Params: []string{"c", "i"},
			Events: []EventDef{{Name: "create", Params: 3}, {Name: "update", Params: 1}, {Name: "next", Params: 2}},
		}},
		{Type: TEvent, Event: Event{Sym: 2, IDs: []uint64{5}}},
		{Type: TEvent, Event: Event{Sym: 0, IDs: []uint64{1, 300, 1 << 40}}},
		{Type: TEvent, Event: Event{Sym: 1, IDs: []uint64{}}},
		{Type: TFree, Free: Free{IDs: []uint64{9, 10, 11}}},
		{Type: TFree, Free: Free{IDs: []uint64{}}},
		{Type: TBarrier, Sync: Sync{Token: 42}},
		{Type: TBarrierAck, Sync: Sync{Token: 42}},
		{Type: TFlush, Sync: Sync{Token: 1}},
		{Type: TFlushAck, Sync: Sync{Token: 1}},
		{Type: TStatsReq, Sync: Sync{Token: 99}},
		{Type: TStats, Stats: Stats{Token: 99, Events: 1e6, Created: 500, Flagged: 400, Collected: 390, GoalVerdicts: 3, Steps: 2e6, Live: 110, PeakLive: 240}},
		{Type: TStats, Stats: Stats{Live: -1, PeakLive: -5}},
		{Type: TVerdict, Verdict: Verdict{Sym: 1, Cat: "error", Mask: 0b101, IDs: []uint64{12, 77}}},
		{Type: TVerdict, Verdict: Verdict{Sym: 0, Cat: "match", Mask: 0, IDs: []uint64{}}},
		{Type: TCredit, Credit: Credit{N: 256}},
		{Type: TError, Error: Error{Msg: "unknown property \"Nope\""}},
		{Type: TBye},
		{Type: TByeAck, Stats: Stats{Events: 8, Created: 2, Live: 1, PeakLive: 2}},
		{Type: TNodeHello, NodeHello: NodeHello{Router: 3, Slot: 11}},
		{Type: THandoffBegin, HandoffBegin: HandoffBegin{Skip: 17}},
		{Type: THandoffBegin},
		{Type: THandoffEnd, Sync: Sync{Token: 5}},
		{Type: THandoffAck, Stats: Stats{Token: 5, Events: 120, Created: 9, Collected: 4, Steps: 240, Live: 5, PeakLive: 9}},
	}
	for _, m := range want {
		var err error
		switch m.Type {
		case THello:
			err = w.WriteHello(m.Hello)
		case THelloAck:
			err = w.WriteHelloAck(m.HelloAck)
		case TEvent:
			err = w.WriteEvent(m.Event.Sym, m.Event.IDs)
		case TFree:
			err = w.WriteFree(m.Free.IDs)
		case TBarrier, TBarrierAck, TFlush, TFlushAck, TStatsReq, THandoffEnd:
			err = w.WriteSync(m.Type, m.Sync.Token)
		case TStats:
			err = w.WriteStats(m.Stats)
		case TVerdict:
			err = w.WriteVerdict(m.Verdict)
		case TCredit:
			err = w.WriteCredit(m.Credit.N)
		case TError:
			err = w.WriteError(m.Error.Msg)
		case TBye:
			err = w.WriteBye()
		case TByeAck:
			err = w.WriteByeAck(ByeAck{Stats: m.Stats})
		case TNodeHello:
			err = w.WriteNodeHello(m.NodeHello)
		case THandoffBegin:
			err = w.WriteHandoffBegin(m.HandoffBegin)
		case THandoffAck:
			err = w.WriteHandoffAck(m.Stats)
		}
		if err != nil {
			t.Fatalf("encoding %d: %v", m.Type, err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestRoundTrip encodes one frame of every message type and decodes the
// stream back, requiring exact equality field by field.
func TestRoundTrip(t *testing.T) {
	stream, want := encodeAll(t)
	r := NewReader(bytes.NewReader(stream))
	for i, exp := range want {
		var got Msg
		if err := r.Next(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// The reader reuses its ID backing; normalize empty vs nil for
		// comparison and copy out before the next frame overwrites it.
		got.Event.IDs = append([]uint64{}, got.Event.IDs...)
		got.Free.IDs = append([]uint64{}, got.Free.IDs...)
		got.Verdict.IDs = append([]uint64{}, got.Verdict.IDs...)
		if exp.Event.IDs == nil {
			exp.Event.IDs = []uint64{}
		}
		if exp.Free.IDs == nil {
			exp.Free.IDs = []uint64{}
		}
		if exp.Verdict.IDs == nil {
			exp.Verdict.IDs = []uint64{}
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("frame %d (type %d) round-trip:\n got %+v\nwant %+v", i, exp.Type, got, exp)
		}
	}
	var extra Msg
	if err := r.Next(&extra); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

// TestTruncation: every proper prefix of a valid stream must produce a
// clean error (EOF/unexpected EOF/short frame), never a panic or a bogus
// decoded message beyond the cut.
func TestTruncation(t *testing.T) {
	stream, _ := encodeAll(t)
	for cut := 0; cut < len(stream); cut++ {
		r := NewReader(bytes.NewReader(stream[:cut]))
		var msg Msg
		for {
			if err := r.Next(&msg); err != nil {
				break // any error is fine; the loop must terminate
			}
		}
	}
}

// TestFrameTooLarge: an announced length beyond MaxFrame is refused
// without allocating the claimed amount.
func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // uvarint ≫ MaxFrame
	r := NewReader(&buf)
	var msg Msg
	if err := r.Next(&msg); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestUnknownType: a frame with an unregistered type byte errors cleanly.
func TestUnknownType(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{1, 200}) // length 1, type 200
	r := NewReader(&buf)
	var msg Msg
	if err := r.Next(&msg); err == nil {
		t.Fatal("unknown type decoded without error")
	}
}

// TestReaderReuse: the reader's reused ID backing must hand out disjoint
// windows within one frame (an Event's IDs must survive until the next
// Next call).
func TestReaderReuse(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvent(1, []uint64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(2, []uint64{30, 40, 50}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var m1 Msg
	if err := r.Next(&m1); err != nil {
		t.Fatal(err)
	}
	first := append([]uint64{}, m1.Event.IDs...)
	var m2 Msg
	if err := r.Next(&m2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, []uint64{10, 20}) {
		t.Fatalf("first event IDs = %v", first)
	}
	if !reflect.DeepEqual(append([]uint64{}, m2.Event.IDs...), []uint64{30, 40, 50}) {
		t.Fatalf("second event IDs = %v", m2.Event.IDs)
	}
}

// FuzzReader feeds arbitrary bytes to the frame decoder: it must never
// panic and must always terminate.
func FuzzReader(f *testing.F) {
	stream, _ := encodeAll(f)
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{5, TEvent, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var msg Msg
		for i := 0; i < 1000; i++ {
			if err := r.Next(&msg); err != nil {
				return
			}
		}
	})
}

// FuzzEventRoundTrip: any symbol/ID combination encodes and decodes to
// itself.
func FuzzEventRoundTrip(f *testing.F) {
	f.Add(0, uint64(1), uint64(2), 2)
	f.Add(5, uint64(1<<63), uint64(0), 1)
	f.Fuzz(func(t *testing.T, sym int, a, b uint64, n int) {
		if sym < 0 || n < 0 || n > 2 {
			return
		}
		ids := []uint64{a, b}[:n]
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteEvent(sym, ids); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(&buf)
		var msg Msg
		if err := r.Next(&msg); err != nil {
			t.Fatal(err)
		}
		if msg.Type != TEvent || msg.Event.Sym != sym || !reflect.DeepEqual(append([]uint64{}, msg.Event.IDs...), append([]uint64{}, ids...)) {
			t.Fatalf("round trip: got %+v, want sym=%d ids=%v", msg.Event, sym, ids)
		}
	})
}

// FuzzWire is the CI smoke fuzz target: arbitrary bytes through the frame
// decoder must never panic, must terminate, and every frame that decodes as
// an Event, Free or Verdict must re-encode and decode back to itself
// (decode → encode → decode is the identity on the decoder's image).
func FuzzWire(f *testing.F) {
	stream, _ := encodeAll(f)
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, TFree, 0})
	f.Add([]byte{5, TEvent, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var msg Msg
		for i := 0; i < 1000; i++ {
			if err := r.Next(&msg); err != nil {
				return
			}
			var buf bytes.Buffer
			w := NewWriter(&buf)
			var werr error
			switch msg.Type {
			case TEvent:
				werr = w.WriteEvent(msg.Event.Sym, msg.Event.IDs)
			case TFree:
				werr = w.WriteFree(msg.Free.IDs)
			case TVerdict:
				werr = w.WriteVerdict(msg.Verdict)
			default:
				continue
			}
			if werr != nil {
				t.Fatalf("re-encoding decoded frame: %v", werr)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			// Snapshot before the second decode reuses the reader state.
			want := Msg{Type: msg.Type}
			switch msg.Type {
			case TEvent:
				want.Event = Event{Sym: msg.Event.Sym, IDs: append([]uint64{}, msg.Event.IDs...)}
			case TFree:
				want.Free = Free{IDs: append([]uint64{}, msg.Free.IDs...)}
			case TVerdict:
				want.Verdict = Verdict{Sym: msg.Verdict.Sym, Cat: msg.Verdict.Cat,
					Mask: msg.Verdict.Mask, IDs: append([]uint64{}, msg.Verdict.IDs...)}
			}
			r2 := NewReader(&buf)
			var msg2 Msg
			if err := r2.Next(&msg2); err != nil {
				t.Fatalf("decoding re-encoded frame: %v", err)
			}
			if msg2.Type != want.Type {
				t.Fatalf("round trip type %d != %d", msg2.Type, want.Type)
			}
			switch want.Type {
			case TEvent:
				if msg2.Event.Sym != want.Event.Sym || !reflect.DeepEqual(append([]uint64{}, msg2.Event.IDs...), want.Event.IDs) {
					t.Fatalf("event round trip: %+v != %+v", msg2.Event, want.Event)
				}
			case TFree:
				if !reflect.DeepEqual(append([]uint64{}, msg2.Free.IDs...), want.Free.IDs) {
					t.Fatalf("free round trip: %+v != %+v", msg2.Free, want.Free)
				}
			case TVerdict:
				if msg2.Verdict.Sym != want.Verdict.Sym || msg2.Verdict.Cat != want.Verdict.Cat ||
					msg2.Verdict.Mask != want.Verdict.Mask ||
					!reflect.DeepEqual(append([]uint64{}, msg2.Verdict.IDs...), want.Verdict.IDs) {
					t.Fatalf("verdict round trip: %+v != %+v", msg2.Verdict, want.Verdict)
				}
			}
		}
	})
}

// TestFrameBuffered: a complete buffered frame reports true, a partial one
// false, and consuming the stream drains it back to false.
func TestFrameBuffered(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteEvent(3, []uint64{7, 9}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteCredit(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	r := NewReader(bytes.NewReader(full))
	if r.FrameBuffered() {
		t.Fatal("nothing read yet: bufio buffer is empty")
	}
	var msg Msg
	if err := r.Next(&msg); err != nil || msg.Type != TEvent {
		t.Fatalf("Next: %v type %d", err, msg.Type)
	}
	// The second frame was pulled into the buffer by the first read.
	if !r.FrameBuffered() {
		t.Fatal("complete second frame buffered but not reported")
	}
	if err := r.Next(&msg); err != nil || msg.Type != TCredit {
		t.Fatalf("Next: %v type %d", err, msg.Type)
	}
	if r.FrameBuffered() {
		t.Fatal("stream drained but FrameBuffered still true")
	}

	// A truncated frame must not report complete.
	r2 := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err := r2.Next(&msg); err != nil {
		t.Fatal(err)
	}
	if r2.FrameBuffered() {
		t.Fatal("truncated frame reported as buffered")
	}
}

// TestStatsCountersSurviveTheWire: every monitor.Stats field crosses
// monitor → Stats frame → bytes → Stats frame → monitor unchanged. A
// counter added to monitor.Stats and not to StatsOf, Counters and the
// frame codec fails here (the router once dropped Avoided that way).
func TestStatsCountersSurviveTheWire(t *testing.T) {
	want := conformance.DistinctStats(t)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteStats(StatsOf(42, want)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var msg Msg
	if err := NewReader(&buf).Next(&msg); err != nil {
		t.Fatal(err)
	}
	if msg.Stats.Token != 42 {
		t.Errorf("token = %d, want 42", msg.Stats.Token)
	}
	if got := msg.Stats.Counters(); got != want {
		t.Errorf("counters came back as %+v, want %+v", got, want)
	}
}
