// Package wire is the binary session protocol between a remote monitored
// program (internal/remote) and the monitoring server (internal/server).
//
// The paper's engine observes object death through weak references — a
// channel that does not exist across a network. The protocol therefore
// makes garbage an explicit trace event: a client names its parameter
// objects with small integer IDs, emits events over those IDs, and sends a
// Free message when an object dies on its side. The server materializes
// one simulated-heap object per remote ID and frees it on Free, which is
// exactly the death signal the coenable-set GC consumes; monitor lifetime
// on the server is governed entirely by these protocol-level deaths.
// Death is final: a remote ID must never be reused after its Free — an
// event naming a freed ID is a session error, not a reallocation.
//
// Framing: every message is one frame — a uvarint payload length followed
// by the payload; the payload's first byte is the message type. Integers
// are unsigned varints, strings are uvarint-length-prefixed UTF-8. A
// Writer buffers frames until Flush, so event streams pipeline; a Reader
// decodes one frame at a time.
// When a client's buffered frames leave the process is Producer's decision
// (a write block, a linger deadline, or a peer that must act) — never the
// kind of frame: the stream is ordered, so a Free's position among the
// Events is the death's position in the trace whenever it is sent.
//
// Session shape:
//
//	client                         server
//	Hello{spec, gc, shards} ───────▶  compile spec, build Runtime
//	       ◀─────── HelloAck{session, window, lanes, event defs}
//	Event* Free* Barrier/Flush/StatsReq ───▶ (pipelined)
//	       ◀─────── Verdict* Release* Credit* BarrierAck/FlushAck/Stats
//	Bye ───────────▶ drain, final flush
//	       ◀─────── ByeAck{final stats}
//
// Flow control is credit-based: HelloAck grants the client a window of
// event credits and every Event spends one; the server replenishes with
// Credit messages as the monitoring runtime actually accepts events, so a
// backend refusing shard.TryDispatchIDs withholds credit and stalls the
// producer at the protocol level rather than in an unbounded server
// queue. Free, Barrier, Flush, StatsReq and Bye are credit-exempt: a
// death or a drain must never be blocked behind the window it is meant to
// help clear.
//
// # Releases
//
// A client must map the IDs in a verdict back to its own objects, so it
// keeps a ref per ID it has sent; Release frames tell it when it may let
// one go. A session's backend is one or more lanes — engines that each
// hold a part of the session's monitors: 1 for a sequential engine, the
// shard count for a sharded one, the slot count behind a cluster router —
// and HelloAck.Lanes says how many. After a Free, each lane releases each
// freed ID exactly once, when it holds no record of the object any more:
// from then on no verdict from that lane can name it. A Release frame is
// written behind every verdict its lane pushed before it, on the same
// ordered stream, so a client that drops its ref once every lane has
// released the ID never meets the ID in a later verdict. A lane may
// release an ID again (a cluster handoff replays the frees of a slot); the
// client ignores a lane that already released it. A client never sends a
// Release. A client tracks the lanes still holding an object in one 64-bit
// word, so a backend has at most MaxReleaseLanes lanes, and a producer
// refuses a HelloAck that announces more.
//
// # Records
//
// An event or a death is one record wherever it travels — in a frame, in a
// cluster slot journal, in a trace segment — and this package owns its
// bytes: Enc is the one encoder and Cursor the one decoder. An event body
// is the uvarint symbol, then one uvarint ID per bound parameter in
// ascending parameter order; a death body is the uvarint count, then the
// IDs. A release frame is TRelease, the uvarint lane and a death body. An
// event frame is TEvent and an event body, with no ID count: the
// frame length delimits the IDs (Version 3). A free frame is TFree and a
// death body. A stored record (a trace segment's) is a tag byte and a
// body. A death names at most MaxDeathIDs objects: a longer one is written
// as consecutive death records at the same stream position, which is
// semantically one death, so no free frame outgrows MaxFrame.
//
// # Cluster sessions
//
// A cluster router (internal/cluster) terminates ordinary sessions from
// clients and opens one downstream session per slot (virtual shard) on the
// rvserve nodes it manages. Three rules extend the protocol there:
//
//   - Node sessions are marked: the router sends a NodeHello frame before
//     the ordinary Hello. Only sessions so marked may use the handoff
//     frames below; on any other session they are a protocol error.
//
//   - Broadcast credit is all-or-nothing. An event that does not bind the
//     pivot parameter must reach every slot, and the router writes it to
//     none of them until it holds one event credit from each. A single
//     slot with an empty window therefore withholds the whole broadcast —
//     and, because the router's ingest stalls, withholds the upstream
//     client's credit end-to-end. This mirrors the in-process sharded
//     runtime, whose TryDispatchIDs refuses a broadcast unless every shard
//     mailbox has room; partial acceptance would let slots observe
//     different event prefixes at a barrier. See the all-or-nothing
//     broadcast test in internal/cluster.
//
//   - Handoff is journal replay. Moving a slot to another node opens a
//     fresh marked session there and replays the slot's event/free journal
//     between HandoffBegin and HandoffEnd. The engine's step and creation
//     decisions are a pure function of the per-slice sequence, so the
//     replay reconstructs the donor's monitor state and counters exactly.
//     HandoffBegin carries Skip, the number of verdicts the upstream
//     client already received from the donor: the node suppresses that
//     many verdict forwards (the engine still counts them), then forwards
//     the rest — which after a crash is precisely the tail the dead donor
//     never delivered. HandoffEnd flushes the backend and is acknowledged
//     by HandoffAck with the settled counters, which the router checks
//     against the donor's ByeAck on a graceful move.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"rvgo/internal/monitor"
)

// Version is the protocol version. A server refuses a Hello whose version
// it does not speak. Version 2 added Hello.Avoid and Stats.Avoided;
// Version 3 dropped the ID count from event frames; Version 4 added
// HelloAck.Lanes and the Release frame.
const Version = 4

// MaxFrame bounds a frame payload; a peer announcing a larger frame is
// corrupt or hostile and the connection is dropped.
const MaxFrame = 1 << 20

// MaxDeathIDs bounds the IDs of one death record: a free frame of
// full-width IDs stays under MaxFrame.
const MaxDeathIDs = 1 << 16

// MaxReleaseLanes is the most lanes a session has: a client tracks the
// lanes still holding an object in one 64-bit word (see Releases).
const MaxReleaseLanes = 64

// Stored-record tags.
const (
	tagEvent byte = 0
	tagDeath byte = 1
)

// Message types. Client→server and server→client types share one space.
const (
	THello      byte = 1  // c→s: open a session
	THelloAck   byte = 2  // s→c: session accepted
	TEvent      byte = 3  // c→s: parametric event over remote object IDs
	TFree       byte = 4  // c→s: remote objects died
	TBarrier    byte = 5  // c→s: request a processing barrier
	TBarrierAck byte = 6  // s→c: barrier reached
	TFlush      byte = 7  // c→s: request a full expunge/compaction pass
	TFlushAck   byte = 8  // s→c: flush done
	TStatsReq   byte = 9  // c→s: request a counter snapshot
	TStats      byte = 10 // s→c: counter snapshot
	TVerdict    byte = 11 // s→c: a goal verdict was reached
	TCredit     byte = 12 // s→c: replenish the event window
	TError      byte = 13 // s→c: fatal session error (connection closes)
	TBye        byte = 14 // c→s: orderly shutdown
	TByeAck     byte = 15 // s→c: final stats, session closed

	// Cluster-tier types (see "Cluster sessions" above). All four are
	// valid only on router↔node links.
	TNodeHello    byte = 16 // r→n: mark a router-owned slot session (precedes Hello)
	THandoffBegin byte = 17 // r→n: slot journal replay follows; suppress Skip verdict forwards
	THandoffEnd   byte = 18 // r→n: replay complete; flush and ack with settled stats
	THandoffAck   byte = 19 // n→r: handoff settled, counters attached

	TRelease byte = 20 // s→c: a lane holds freed objects no longer
)

// SpecKind says how Hello.Spec is to be interpreted.
const (
	// SpecProp names a property from the server's built-in library
	// (internal/props).
	SpecProp byte = 0
	// SpecSource carries .rv specification source text compiled by the
	// server (internal/spec); it must compile to exactly one property.
	SpecSource byte = 1
)

// Hello opens a session: the spec to monitor, the GC policy and creation
// strategy for the session's engine(s), and the backend shape.
type Hello struct {
	Version  uint64
	SpecKind byte
	// Spec is a property name (SpecProp) or .rv source (SpecSource).
	Spec string
	// GC, Creation and Avoid use monitor.GCPolicy /
	// monitor.CreationStrategy / monitor.AvoidMode values.
	GC       byte
	Creation byte
	Avoid    byte
	// Shards selects the session backend: 1 = sequential engine, >1 = the
	// sharded runtime with that many workers. 0 lets the server choose.
	Shards uint64
	// Window is the requested event-credit window (0 = server default).
	Window uint64
}

// Options is the engine configuration the Hello's mode bytes select: the
// one Hello → monitor.Options conversion. The bytes are taken as they are;
// monitor.Options.Check judges them.
func (h Hello) Options() monitor.Options {
	return monitor.Options{
		GC:       monitor.GCPolicy(h.GC),
		Creation: monitor.CreationStrategy(h.Creation),
		Avoid:    monitor.AvoidMode(h.Avoid),
	}
}

// EventDef mirrors monitor.EventDef on the wire: the event name and the
// parameter-set bitmask D(e).
type EventDef struct {
	Name   string
	Params uint64
}

// HelloAck accepts a session. Events echoes the compiled spec's event
// list so the client can verify its local spec matches the server's.
type HelloAck struct {
	Session  uint64
	Window   uint64 // granted credit window
	Lanes    uint64 // the backend's lanes, at least 1 (see Releases)
	SpecName string
	Params   []string
	Events   []EventDef
}

// Event is one parametric event: the symbol index and the remote IDs
// binding D(e) in ascending parameter-index order.
type Event struct {
	Sym int
	IDs []uint64
}

// Free reports the death of remote objects, in death order. The server
// positions the deaths in its runtime's stream before applying them, so
// every event sent before the Free observes the objects alive.
type Free struct {
	IDs []uint64
}

// Release says that lane Lane holds no record of the freed objects IDs
// any more: no later verdict from the lane names them.
type Release struct {
	Lane uint64
	IDs  []uint64
}

// Sync is the shared shape of Barrier/BarrierAck/Flush/FlushAck/StatsReq:
// a client-chosen token echoed in the matching ack.
type Sync struct {
	Token uint64
}

// Stats is a counter snapshot (monitor.Stats on the wire).
type Stats struct {
	Token        uint64
	Events       uint64
	Created      uint64
	Flagged      uint64
	Collected    uint64
	GoalVerdicts uint64
	Steps        uint64
	Avoided      uint64
	Live         int64
	PeakLive     int64
}

// StatsOf puts a backend's counters on the wire under an ack token; with
// Counters it is the only monitor.Stats ⇄ Stats conversion (a counter added
// to one side and not the other fails the package's reflection test).
func StatsOf(token uint64, st monitor.Stats) Stats {
	return Stats{
		Token:        token,
		Events:       st.Events,
		Created:      st.Created,
		Flagged:      st.Flagged,
		Collected:    st.Collected,
		GoalVerdicts: st.GoalVerdicts,
		Steps:        st.Steps,
		Avoided:      st.Avoided,
		Live:         st.Live,
		PeakLive:     st.PeakLive,
	}
}

// Counters is the monitor.Stats the frame carries.
func (s Stats) Counters() monitor.Stats {
	return monitor.Stats{
		Events:       s.Events,
		Created:      s.Created,
		Flagged:      s.Flagged,
		Collected:    s.Collected,
		GoalVerdicts: s.GoalVerdicts,
		Steps:        s.Steps,
		Avoided:      s.Avoided,
		Live:         s.Live,
		PeakLive:     s.PeakLive,
	}
}

// counters lists the unsigned counters in the order a stats body carries
// them, ahead of Live and PeakLive.
func (s *Stats) counters() [8]*uint64 {
	return [8]*uint64{&s.Token, &s.Events, &s.Created, &s.Flagged, &s.Collected, &s.GoalVerdicts, &s.Steps, &s.Avoided}
}

// Verdict pushes one goal verdict: the triggering symbol, the verdict
// category, and the instance as a parameter bitmask plus the remote IDs of
// the bound objects in ascending parameter order. The client maps IDs back
// to its own refs; labels never cross the wire.
type Verdict struct {
	Sym  int
	Cat  string
	Mask uint64
	IDs  []uint64
}

// Credit replenishes the client's event window by N.
type Credit struct {
	N uint64
}

// Error is a fatal session error; the server closes the connection after
// sending it.
type Error struct {
	Msg string
}

// Bye requests orderly shutdown; ByeAck carries the final settled stats.
type ByeAck struct {
	Stats Stats
}

// NodeHello marks a session as router-owned, naming the router instance
// and the slot (virtual shard) whose slices the session will carry. It is
// sent before the ordinary Hello and is what authorizes the handoff
// frames on this session.
type NodeHello struct {
	Router uint64
	Slot   uint64
}

// HandoffBegin opens a slot-handoff bracket: the frames that follow, up
// to HandoffEnd, replay the slot's journal. Skip is the number of verdicts
// the upstream client already received from the slot's previous owner; the
// node suppresses that many verdict forwards (its engine still counts
// them) and forwards the rest.
type HandoffBegin struct {
	Skip uint64
}

// Writer encodes frames onto a buffered stream. Frames accumulate in the
// buffer (pipelining) until Flush; the buffer also drains to the
// connection whenever it fills, so sustained event streams do not require
// explicit flushes. Writer is not safe for concurrent use.
type Writer struct {
	bw *bufio.Writer
	// buf is the frame under construction, handed to the buffered stream
	// whole, so nothing per frame reaches the heap.
	buf Enc
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32*1024)}
}

// Flush drains buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports the number of bytes written but not yet flushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

func (w *Writer) frame(t byte) {
	w.buf = w.buf[:0]
	w.buf.open(t)
}

func (w *Writer) emit() error {
	if n := len(w.buf) - 1; n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", n)
	}
	w.buf.close(0)
	return w.WriteFrames(w.buf)
}

// WriteFrames writes frames already encoded by Enc, as they are.
func (w *Writer) WriteFrames(frames []byte) error {
	_, err := w.bw.Write(frames)
	return err
}

// WriteHello encodes a Hello frame.
func (w *Writer) WriteHello(h Hello) error {
	w.frame(THello)
	w.buf.U(h.Version)
	w.buf.B(h.SpecKind)
	w.buf.S(h.Spec)
	w.buf.B(h.GC)
	w.buf.B(h.Creation)
	w.buf.B(h.Avoid)
	w.buf.U(h.Shards)
	w.buf.U(h.Window)
	return w.emit()
}

// WriteHelloAck encodes a HelloAck frame.
func (w *Writer) WriteHelloAck(a HelloAck) error {
	w.frame(THelloAck)
	w.buf.U(a.Session)
	w.buf.U(a.Window)
	w.buf.U(a.Lanes)
	w.buf.S(a.SpecName)
	w.buf.U(uint64(len(a.Params)))
	for _, p := range a.Params {
		w.buf.S(p)
	}
	w.buf.U(uint64(len(a.Events)))
	for _, e := range a.Events {
		w.buf.S(e.Name)
		w.buf.U(e.Params)
	}
	return w.emit()
}

// WriteEvent encodes an Event frame.
func (w *Writer) WriteEvent(sym int, ids []uint64) error {
	w.buf = w.buf[:0]
	w.buf.EventFrame(sym, ids)
	return w.WriteFrames(w.buf)
}

// WriteFree encodes the Free frames of one death.
func (w *Writer) WriteFree(ids []uint64) error {
	w.buf = w.buf[:0]
	w.buf.FreeFrames(ids)
	return w.WriteFrames(w.buf)
}

// WriteRelease encodes the Release frames of one lane's IDs.
func (w *Writer) WriteRelease(lane uint64, ids []uint64) error {
	w.buf = w.buf[:0]
	w.buf.ReleaseFrames(lane, ids)
	return w.WriteFrames(w.buf)
}

// WriteSync encodes one of the token-only frame types (TBarrier,
// TBarrierAck, TFlush, TFlushAck, TStatsReq, THandoffEnd; TCredit uses
// WriteCredit).
func (w *Writer) WriteSync(t byte, token uint64) error {
	w.frame(t)
	w.buf.U(token)
	return w.emit()
}

// WriteStats encodes a Stats frame.
func (w *Writer) WriteStats(s Stats) error {
	w.frame(TStats)
	w.writeStatsBody(s)
	return w.emit()
}

func (w *Writer) writeStatsBody(s Stats) {
	for _, f := range s.counters() {
		w.buf.U(*f)
	}
	w.buf.I(s.Live)
	w.buf.I(s.PeakLive)
}

// WriteVerdict encodes a Verdict frame.
func (w *Writer) WriteVerdict(v Verdict) error {
	w.frame(TVerdict)
	w.buf.U(uint64(v.Sym))
	w.buf.S(v.Cat)
	w.buf.U(v.Mask)
	for _, id := range v.IDs {
		w.buf.U(id)
	}
	return w.emit()
}

// WriteCredit encodes a Credit frame.
func (w *Writer) WriteCredit(n uint64) error {
	w.frame(TCredit)
	w.buf.U(n)
	return w.emit()
}

// WriteError encodes an Error frame.
func (w *Writer) WriteError(msg string) error {
	w.frame(TError)
	w.buf.S(msg)
	return w.emit()
}

// WriteBye encodes a Bye frame.
func (w *Writer) WriteBye() error {
	w.frame(TBye)
	return w.emit()
}

// WriteByeAck encodes a ByeAck frame.
func (w *Writer) WriteByeAck(a ByeAck) error {
	w.frame(TByeAck)
	w.writeStatsBody(a.Stats)
	return w.emit()
}

// WriteNodeHello encodes a NodeHello frame.
func (w *Writer) WriteNodeHello(h NodeHello) error {
	w.frame(TNodeHello)
	w.buf.U(h.Router)
	w.buf.U(h.Slot)
	return w.emit()
}

// WriteHandoffBegin encodes a HandoffBegin frame.
func (w *Writer) WriteHandoffBegin(h HandoffBegin) error {
	w.frame(THandoffBegin)
	w.buf.U(h.Skip)
	return w.emit()
}

// WriteHandoffAck encodes a HandoffAck frame (the settled counters of a
// completed handoff; Token echoes the HandoffEnd's).
func (w *Writer) WriteHandoffAck(s Stats) error {
	w.frame(THandoffAck)
	w.writeStatsBody(s)
	return w.emit()
}

// Msg is one decoded frame: Type plus the fields of the matching struct.
// A single sum type keeps the hot read loop allocation-light (the decoder
// reuses one Msg and its ID slice across frames when the caller permits).
type Msg struct {
	Type         byte
	Hello        Hello
	HelloAck     HelloAck
	Event        Event
	Free         Free
	Release      Release
	Sync         Sync
	Stats        Stats
	Verdict      Verdict
	Credit       Credit
	Error        Error
	NodeHello    NodeHello
	HandoffBegin HandoffBegin
}

// Reader decodes frames from a buffered stream.
type Reader struct {
	br  *bufio.Reader
	buf []byte
	c   Cursor   // over the current frame's payload
	ids []uint64 // reused backing for Event/Free/Release/Verdict IDs
	// cats are the verdict categories decoded so far (a spec's categories
	// and, for an FSM, its state names), so a repeated one costs no
	// allocation; at most maxCats are kept.
	cats []string
}

// maxCats bounds Reader.cats: a peer that sends ever new categories gets a
// fresh string for each past the first maxCats, not a growing table.
const maxCats = 64

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32*1024)}
}

// FrameBuffered reports whether a complete frame is already sitting in the
// read buffer, so the next Next call will return without blocking on the
// connection. The server's ingest loop uses it to batch-process pipelined
// event frames — decode and dispatch while data is buffered, flush credit
// only when the stream would block — so a burst of N events costs one
// credit write instead of N. A corrupt length prefix reports true: Next
// will surface the error without blocking.
func (r *Reader) FrameBuffered() bool {
	n := r.br.Buffered()
	if n == 0 {
		return false
	}
	k := n
	if k > binary.MaxVarintLen64 {
		k = binary.MaxVarintLen64
	}
	peek, err := r.br.Peek(k)
	if err != nil {
		return false
	}
	flen, vn := binary.Uvarint(peek)
	if vn == 0 {
		return false // length varint incomplete
	}
	if vn < 0 {
		return true // overlong varint: let Next report the corruption
	}
	return uint64(n-vn) >= flen
}

// ErrFrameTooLarge reports a frame exceeding MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// Next reads and decodes one frame into msg. The Event/Free/Release/Verdict ID
// slices and all strings are valid until the following Next call. Returns
// io.EOF at a clean end of stream.
func (r *Reader) Next(msg *Msg) error {
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return err
	}
	if n > MaxFrame {
		return ErrFrameTooLarge
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	r.c = Cursor{Buf: r.buf}
	*msg = Msg{Type: r.c.B()}
	switch msg.Type {
	case THello:
		r.decodeHello(&msg.Hello)
	case THelloAck:
		r.decodeHelloAck(&msg.HelloAck)
	case TEvent:
		msg.Event.Sym, r.ids = r.c.event(r.ids[:0], nil)
		msg.Event.IDs = r.ids
	case TFree:
		r.ids = r.c.ids(r.ids[:0], r.c.Count())
		msg.Free.IDs = r.ids
	case TRelease:
		msg.Release.Lane = r.c.U()
		r.ids = r.c.ids(r.ids[:0], r.c.Count())
		msg.Release.IDs = r.ids
	case TBarrier, TBarrierAck, TFlush, TFlushAck, TStatsReq, THandoffEnd:
		msg.Sync.Token = r.c.U()
	case TStats, TByeAck, THandoffAck:
		r.decodeStats(&msg.Stats)
	case TVerdict:
		r.decodeVerdict(&msg.Verdict)
	case TCredit:
		msg.Credit.N = r.c.U()
	case TError:
		msg.Error.Msg = r.c.S()
	case TBye:
	case TNodeHello:
		msg.NodeHello.Router = r.c.U()
		msg.NodeHello.Slot = r.c.U()
	case THandoffBegin:
		msg.HandoffBegin.Skip = r.c.U()
	default:
		r.c.fail(fmt.Errorf("wire: unknown message type %d", msg.Type))
	}
	return r.c.Err
}

func (r *Reader) decodeHello(h *Hello) {
	h.Version = r.c.U()
	h.SpecKind = r.c.B()
	h.Spec = r.c.S()
	h.GC = r.c.B()
	h.Creation = r.c.B()
	h.Avoid = r.c.B()
	h.Shards = r.c.U()
	h.Window = r.c.U()
}

func (r *Reader) decodeHelloAck(a *HelloAck) {
	a.Session = r.c.U()
	a.Window = r.c.U()
	a.Lanes = r.c.U()
	a.SpecName = r.c.S()
	a.Params = make([]string, r.c.Count())
	for i := range a.Params {
		a.Params[i] = r.c.S()
	}
	a.Events = make([]EventDef, r.c.Count())
	for i := range a.Events {
		a.Events[i] = EventDef{Name: r.c.S(), Params: r.c.U()}
	}
}

func (r *Reader) decodeStats(s *Stats) {
	for _, f := range s.counters() {
		*f = r.c.U()
	}
	s.Live = r.c.I()
	s.PeakLive = r.c.I()
}

func (r *Reader) decodeVerdict(v *Verdict) {
	sym := r.c.U()
	if sym > math.MaxInt32 {
		r.c.fail(fmt.Errorf("wire: verdict symbol %d out of range", sym))
	}
	v.Sym = int(sym)
	v.Cat = r.category()
	v.Mask = r.c.U()
	r.ids = r.c.ids(r.ids[:0], bits.OnesCount64(v.Mask))
	v.IDs = r.ids
}

// category decodes a verdict's category, returning the table's copy when
// it has seen the name before.
func (r *Reader) category() string {
	n := r.c.Count()
	r.c.Pos += n
	b := r.c.Buf[r.c.Pos-n : r.c.Pos]
	for _, cat := range r.cats {
		if cat == string(b) {
			return cat
		}
	}
	cat := string(b)
	if len(r.cats) < maxCats {
		r.cats = append(r.cats, cat)
	}
	return cat
}

// Enc is the one encoder: append-only bytes under frames, slot journals
// and trace segments. U, I, B and S append an unsigned varint, a signed
// varint, a byte and a length-prefixed string.
type Enc []byte

func (e *Enc) U(v uint64)   { *e = binary.AppendUvarint(*e, v) }
func (e *Enc) I(v int64)    { *e = binary.AppendVarint(*e, v) }
func (e *Enc) B(v byte)     { *e = append(*e, v) }
func (e *Enc) S(str string) { e.U(uint64(len(str))); *e = append(*e, str...) }

// event appends an event body.
func (e *Enc) event(sym int, ids []uint64) {
	e.U(uint64(sym))
	for _, id := range ids {
		e.U(id)
	}
}

// death appends a death body naming the first MaxDeathIDs of ids and
// returns the rest, for the next death record at the same position.
func (e *Enc) death(ids []uint64) (rest []uint64) {
	n := min(len(ids), MaxDeathIDs)
	e.U(uint64(n))
	for _, id := range ids[:n] {
		e.U(id)
	}
	return ids[n:]
}

// EventRecord appends a stored event record.
func (e *Enc) EventRecord(sym int, ids []uint64) {
	e.B(tagEvent)
	e.event(sym, ids)
}

// DeathRecord appends one stored death record and returns the IDs left
// for the next.
func (e *Enc) DeathRecord(ids []uint64) (rest []uint64) {
	e.B(tagDeath)
	return e.death(ids)
}

// EventFrame appends an event frame.
func (e *Enc) EventFrame(sym int, ids []uint64) {
	start := e.open(TEvent)
	e.event(sym, ids)
	e.close(start)
}

// FreeFrames appends the free frames of one death: one per MaxDeathIDs
// IDs, and one empty frame for an empty death.
func (e *Enc) FreeFrames(ids []uint64) {
	for {
		start := e.open(TFree)
		ids = e.death(ids)
		e.close(start)
		if len(ids) == 0 {
			return
		}
	}
}

// ReleaseFrames appends the release frames of one lane's IDs: one per
// MaxDeathIDs IDs, and none for no IDs.
func (e *Enc) ReleaseFrames(lane uint64, ids []uint64) {
	for len(ids) > 0 {
		start := e.open(TRelease)
		e.U(lane)
		ids = e.death(ids)
		e.close(start)
	}
}

// open starts a frame of type t, reserving one byte for the length prefix.
func (e *Enc) open(t byte) (start int) {
	start = len(*e)
	*e = append(*e, 0, t)
	return start
}

// close fills in the length prefix of the frame opened at start, moving
// the payload up when the prefix needs more than its one byte.
func (e *Enc) close(start int) {
	n := len(*e) - start - 1
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	if k > 1 {
		*e = append(*e, hdr[1:k]...)
		copy((*e)[start+k:], (*e)[start+1:start+1+n])
	}
	copy((*e)[start:], hdr[:k])
}

// FrameHeader reads the head of a frame this process encoded, at the start
// of b: its type, and its size with the length prefix.
func FrameHeader(b []byte) (t byte, size int) {
	n, k := binary.Uvarint(b)
	return b[k], k + int(n)
}

// Cursor is the one decoder: a read position in encoded bytes — a frame
// payload, a trace segment — which it never modifies, so parallel readers
// share one buffer without copying. The first malformed value sets Err and
// exhausts the cursor; every read after it yields a zero value, so a
// decoder checks Err once, after a message or a record.
type Cursor struct {
	Buf []byte
	Pos int
	Err error
}

var errShort = errors.New("wire: truncated payload")

// fail records the first decoding failure and exhausts the cursor.
func (c *Cursor) fail(err error) {
	if c.Err == nil {
		c.Err = err
	}
	c.Pos = len(c.Buf)
}

// B decodes a byte.
func (c *Cursor) B() byte {
	if c.Pos >= len(c.Buf) {
		c.fail(errShort)
		return 0
	}
	c.Pos++
	return c.Buf[c.Pos-1]
}

// U decodes an unsigned varint; the one-byte case inlines at the caller.
func (c *Cursor) U() uint64 {
	if c.Pos < len(c.Buf) && c.Buf[c.Pos] < 0x80 {
		c.Pos++
		return uint64(c.Buf[c.Pos-1])
	}
	return c.uvarint()
}

func (c *Cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.Buf[c.Pos:])
	if n <= 0 {
		c.fail(errShort)
		return 0
	}
	c.Pos += n
	return v
}

// I decodes a signed varint.
func (c *Cursor) I() int64 {
	v, n := binary.Varint(c.Buf[c.Pos:])
	if n <= 0 {
		c.fail(errShort)
		return 0
	}
	c.Pos += n
	return v
}

// S decodes a length-prefixed string.
func (c *Cursor) S() string {
	n := c.Count()
	c.Pos += n
	return string(c.Buf[c.Pos-n : c.Pos])
}

// Count decodes the number of items that follow, refusing one the
// remaining bytes cannot hold: every item takes at least a byte.
func (c *Cursor) Count() int {
	n := c.U()
	if n > uint64(len(c.Buf)-c.Pos) {
		c.fail(errShort)
		return 0
	}
	return int(n)
}

// ids appends n IDs to dst; n < 0 reads them to the end of the bytes, as
// an event frame's, whose length delimits them.
func (c *Cursor) ids(dst []uint64, n int) []uint64 {
	if n > len(c.Buf)-c.Pos {
		c.fail(errShort)
		return dst
	}
	for k := 0; k != n && (n > 0 || c.Pos < len(c.Buf)); k++ {
		v, w := binary.Uvarint(c.Buf[c.Pos:])
		if w <= 0 {
			c.fail(errShort)
			return dst
		}
		c.Pos += w
		dst = append(dst, v)
	}
	return dst
}

// event decodes an event body, appending its IDs to dst: arity[sym] of
// them, or with arity nil every ID to the end of the bytes.
func (c *Cursor) event(dst []uint64, arity []int) (int, []uint64) {
	sym, n := c.U(), -1
	switch {
	case arity != nil && sym < uint64(len(arity)):
		n = arity[sym]
	case arity != nil || sym > math.MaxInt32:
		c.fail(fmt.Errorf("wire: event symbol %d out of range", sym))
		return 0, dst
	}
	return int(sym), c.ids(dst, n)
}

// Record decodes one stored record, appending its IDs to dst: an event of
// symbol sym, binding arity[sym] IDs, or a death, sym -1.
func (c *Cursor) Record(dst []uint64, arity []int) (sym int, ids []uint64) {
	switch tag := c.B(); tag {
	case tagEvent:
		return c.event(dst, arity)
	case tagDeath:
		return -1, c.ids(dst, c.Count())
	default:
		c.fail(fmt.Errorf("wire: unknown record tag %d", tag))
		return 0, dst
	}
}
