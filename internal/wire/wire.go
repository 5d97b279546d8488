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
// are unsigned varints (two-byte frames for the common small-ID events),
// strings are uvarint-length-prefixed UTF-8. A Writer buffers frames until
// Flush, so event streams pipeline; a Reader decodes one frame at a time.
// When a client's buffered frames leave the process is Producer's decision
// (a write block, a linger deadline, or a peer that must act) — never the
// kind of frame: the stream is ordered, so a Free's position among the
// Events is the death's position in the trace whenever it is sent.
//
// Session shape:
//
//	client                         server
//	Hello{spec, gc, shards} ───────▶  compile spec, build Runtime
//	       ◀─────── HelloAck{session, window, event defs}
//	Event* Free* Barrier/Flush/StatsReq ───▶ (pipelined)
//	       ◀─────── Verdict* Credit* BarrierAck/FlushAck/Stats
//	Bye ───────────▶ drain, final flush
//	       ◀─────── ByeAck{final stats}
//
// Flow control is credit-based: HelloAck grants the client a window of
// event credits and every Event spends one; the server replenishes with
// Credit messages as the monitoring runtime actually accepts events, so a
// backend refusing shard.TryDispatch withholds credit and stalls the
// producer at the protocol level rather than in an unbounded server
// queue. Free, Barrier, Flush, StatsReq and Bye are credit-exempt: a
// death or a drain must never be blocked behind the window it is meant to
// help clear.
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
//     runtime, whose TryDispatch refuses a broadcast unless every shard
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

	"rvgo/internal/monitor"
)

// Version is the protocol version. A server refuses a Hello whose version
// it does not speak. Version 2 added Hello.Avoid and Stats.Avoided.
const Version = 2

// MaxFrame bounds a frame payload; a peer announcing a larger frame is
// corrupt or hostile and the connection is dropped.
const MaxFrame = 1 << 20

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
	// buf is the frame under construction: hdrSpace bytes reserved for the
	// length prefix, then the payload, so emit hands the buffered stream
	// one contiguous frame and nothing per frame reaches the heap.
	buf []byte
}

// hdrSpace is the room a frame's uvarint length prefix can need.
const hdrSpace = binary.MaxVarintLen64

var hdrPad [hdrSpace]byte

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32*1024)}
}

// Flush drains buffered frames to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports the number of bytes written but not yet flushed.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

func (w *Writer) frame() { w.buf = append(w.buf[:0], hdrPad[:]...) }

func (w *Writer) u(v uint64)   { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *Writer) b(v byte)     { w.buf = append(w.buf, v) }
func (w *Writer) i(v int64)    { w.buf = binary.AppendVarint(w.buf, v) }
func (w *Writer) s(str string) { w.u(uint64(len(str))); w.buf = append(w.buf, str...) }

func (w *Writer) emit() error {
	n := len(w.buf) - hdrSpace
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrame", n)
	}
	// Right-align the length prefix against the payload.
	var hdr [hdrSpace]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	start := hdrSpace - k
	copy(w.buf[start:], hdr[:k])
	_, err := w.bw.Write(w.buf[start:])
	return err
}

// WriteHello encodes a Hello frame.
func (w *Writer) WriteHello(h Hello) error {
	w.frame()
	w.b(THello)
	w.u(h.Version)
	w.b(h.SpecKind)
	w.s(h.Spec)
	w.b(h.GC)
	w.b(h.Creation)
	w.b(h.Avoid)
	w.u(h.Shards)
	w.u(h.Window)
	return w.emit()
}

// WriteHelloAck encodes a HelloAck frame.
func (w *Writer) WriteHelloAck(a HelloAck) error {
	w.frame()
	w.b(THelloAck)
	w.u(a.Session)
	w.u(a.Window)
	w.s(a.SpecName)
	w.u(uint64(len(a.Params)))
	for _, p := range a.Params {
		w.s(p)
	}
	w.u(uint64(len(a.Events)))
	for _, e := range a.Events {
		w.s(e.Name)
		w.u(e.Params)
	}
	return w.emit()
}

// WriteEvent encodes an Event frame.
func (w *Writer) WriteEvent(sym int, ids []uint64) error {
	w.frame()
	w.b(TEvent)
	w.u(uint64(sym))
	w.u(uint64(len(ids)))
	for _, id := range ids {
		w.u(id)
	}
	return w.emit()
}

// WriteFree encodes a Free frame.
func (w *Writer) WriteFree(ids []uint64) error {
	w.frame()
	w.b(TFree)
	w.u(uint64(len(ids)))
	for _, id := range ids {
		w.u(id)
	}
	return w.emit()
}

// WriteSync encodes one of the token-only frame types (TBarrier,
// TBarrierAck, TFlush, TFlushAck, TStatsReq, THandoffEnd; TCredit uses
// WriteCredit).
func (w *Writer) WriteSync(t byte, token uint64) error {
	w.frame()
	w.b(t)
	w.u(token)
	return w.emit()
}

// WriteStats encodes a Stats frame.
func (w *Writer) WriteStats(s Stats) error {
	w.frame()
	w.b(TStats)
	w.writeStatsBody(s)
	return w.emit()
}

func (w *Writer) writeStatsBody(s Stats) {
	w.u(s.Token)
	w.u(s.Events)
	w.u(s.Created)
	w.u(s.Flagged)
	w.u(s.Collected)
	w.u(s.GoalVerdicts)
	w.u(s.Steps)
	w.u(s.Avoided)
	w.i(s.Live)
	w.i(s.PeakLive)
}

// WriteVerdict encodes a Verdict frame.
func (w *Writer) WriteVerdict(v Verdict) error {
	w.frame()
	w.b(TVerdict)
	w.u(uint64(v.Sym))
	w.s(v.Cat)
	w.u(v.Mask)
	for _, id := range v.IDs {
		w.u(id)
	}
	return w.emit()
}

// WriteCredit encodes a Credit frame.
func (w *Writer) WriteCredit(n uint64) error {
	w.frame()
	w.b(TCredit)
	w.u(n)
	return w.emit()
}

// WriteError encodes an Error frame.
func (w *Writer) WriteError(msg string) error {
	w.frame()
	w.b(TError)
	w.s(msg)
	return w.emit()
}

// WriteBye encodes a Bye frame.
func (w *Writer) WriteBye() error {
	w.frame()
	w.b(TBye)
	return w.emit()
}

// WriteByeAck encodes a ByeAck frame.
func (w *Writer) WriteByeAck(a ByeAck) error {
	w.frame()
	w.b(TByeAck)
	w.writeStatsBody(a.Stats)
	return w.emit()
}

// WriteNodeHello encodes a NodeHello frame.
func (w *Writer) WriteNodeHello(h NodeHello) error {
	w.frame()
	w.b(TNodeHello)
	w.u(h.Router)
	w.u(h.Slot)
	return w.emit()
}

// WriteHandoffBegin encodes a HandoffBegin frame.
func (w *Writer) WriteHandoffBegin(h HandoffBegin) error {
	w.frame()
	w.b(THandoffBegin)
	w.u(h.Skip)
	return w.emit()
}

// WriteHandoffAck encodes a HandoffAck frame (the settled counters of a
// completed handoff; Token echoes the HandoffEnd's).
func (w *Writer) WriteHandoffAck(s Stats) error {
	w.frame()
	w.b(THandoffAck)
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
	pos int
	ids []uint64 // reused backing for Event/Free/Verdict IDs
}

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

var errShortFrame = errors.New("wire: truncated frame")

// Next reads and decodes one frame into msg. The Event/Free/Verdict ID
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
	r.pos = 0
	r.ids = r.ids[:0]
	t, err := r.rb()
	if err != nil {
		return err
	}
	*msg = Msg{Type: t}
	switch t {
	case THello:
		return r.decodeHello(&msg.Hello)
	case THelloAck:
		return r.decodeHelloAck(&msg.HelloAck)
	case TEvent:
		sym, err := r.ru()
		if err != nil {
			return err
		}
		if sym > math.MaxInt32 {
			return fmt.Errorf("wire: event symbol %d out of range", sym)
		}
		msg.Event.Sym = int(sym)
		msg.Event.IDs, err = r.ruSlice()
		return err
	case TFree:
		var err error
		msg.Free.IDs, err = r.ruSlice()
		return err
	case TBarrier, TBarrierAck, TFlush, TFlushAck, TStatsReq:
		tok, err := r.ru()
		msg.Sync.Token = tok
		return err
	case TStats:
		return r.decodeStats(&msg.Stats)
	case TVerdict:
		return r.decodeVerdict(&msg.Verdict)
	case TCredit:
		n, err := r.ru()
		msg.Credit.N = n
		return err
	case TError:
		s, err := r.rs()
		msg.Error.Msg = s
		return err
	case TBye, TByeAck:
		if t == TByeAck {
			return r.decodeStats(&msg.Stats)
		}
		return nil
	case TNodeHello:
		var err error
		if msg.NodeHello.Router, err = r.ru(); err != nil {
			return err
		}
		msg.NodeHello.Slot, err = r.ru()
		return err
	case THandoffBegin:
		skip, err := r.ru()
		msg.HandoffBegin.Skip = skip
		return err
	case THandoffEnd:
		tok, err := r.ru()
		msg.Sync.Token = tok
		return err
	case THandoffAck:
		return r.decodeStats(&msg.Stats)
	default:
		return fmt.Errorf("wire: unknown message type %d", t)
	}
}

func (r *Reader) rb() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errShortFrame
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *Reader) ru() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	r.pos += n
	return v, nil
}

func (r *Reader) ri() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errShortFrame
	}
	r.pos += n
	return v, nil
}

func (r *Reader) rs() (string, error) {
	n, err := r.ru()
	if err != nil {
		return "", err
	}
	if uint64(len(r.buf)-r.pos) < n {
		return "", errShortFrame
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// ruSlice reads a count-prefixed uvarint slice into the reader's reused
// backing array.
func (r *Reader) ruSlice() ([]uint64, error) {
	n, err := r.ru()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.buf)-r.pos) < n { // each id is ≥ 1 byte
		return nil, errShortFrame
	}
	start := len(r.ids)
	for k := uint64(0); k < n; k++ {
		id, err := r.ru()
		if err != nil {
			return nil, err
		}
		r.ids = append(r.ids, id)
	}
	return r.ids[start:], nil
}

func (r *Reader) decodeHello(h *Hello) error {
	var err error
	if h.Version, err = r.ru(); err != nil {
		return err
	}
	if h.SpecKind, err = r.rb(); err != nil {
		return err
	}
	if h.Spec, err = r.rs(); err != nil {
		return err
	}
	if h.GC, err = r.rb(); err != nil {
		return err
	}
	if h.Creation, err = r.rb(); err != nil {
		return err
	}
	if h.Avoid, err = r.rb(); err != nil {
		return err
	}
	if h.Shards, err = r.ru(); err != nil {
		return err
	}
	h.Window, err = r.ru()
	return err
}

func (r *Reader) decodeHelloAck(a *HelloAck) error {
	var err error
	if a.Session, err = r.ru(); err != nil {
		return err
	}
	if a.Window, err = r.ru(); err != nil {
		return err
	}
	if a.SpecName, err = r.rs(); err != nil {
		return err
	}
	np, err := r.ru()
	if err != nil {
		return err
	}
	if uint64(len(r.buf)-r.pos) < np {
		return errShortFrame
	}
	a.Params = make([]string, np)
	for i := range a.Params {
		if a.Params[i], err = r.rs(); err != nil {
			return err
		}
	}
	ne, err := r.ru()
	if err != nil {
		return err
	}
	if uint64(len(r.buf)-r.pos) < ne {
		return errShortFrame
	}
	a.Events = make([]EventDef, ne)
	for i := range a.Events {
		if a.Events[i].Name, err = r.rs(); err != nil {
			return err
		}
		if a.Events[i].Params, err = r.ru(); err != nil {
			return err
		}
	}
	return nil
}

func (r *Reader) decodeStats(s *Stats) error {
	var err error
	if s.Token, err = r.ru(); err != nil {
		return err
	}
	if s.Events, err = r.ru(); err != nil {
		return err
	}
	if s.Created, err = r.ru(); err != nil {
		return err
	}
	if s.Flagged, err = r.ru(); err != nil {
		return err
	}
	if s.Collected, err = r.ru(); err != nil {
		return err
	}
	if s.GoalVerdicts, err = r.ru(); err != nil {
		return err
	}
	if s.Steps, err = r.ru(); err != nil {
		return err
	}
	if s.Avoided, err = r.ru(); err != nil {
		return err
	}
	if s.Live, err = r.ri(); err != nil {
		return err
	}
	s.PeakLive, err = r.ri()
	return err
}

func (r *Reader) decodeVerdict(v *Verdict) error {
	sym, err := r.ru()
	if err != nil {
		return err
	}
	if sym > math.MaxInt32 {
		return fmt.Errorf("wire: verdict symbol %d out of range", sym)
	}
	v.Sym = int(sym)
	if v.Cat, err = r.rs(); err != nil {
		return err
	}
	if v.Mask, err = r.ru(); err != nil {
		return err
	}
	n := popcount(v.Mask)
	start := len(r.ids)
	for k := 0; k < n; k++ {
		id, err := r.ru()
		if err != nil {
			return err
		}
		r.ids = append(r.ids, id)
	}
	v.IDs = r.ids[start:]
	return nil
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}
