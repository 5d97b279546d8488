// Package trace is the persistent trace store and flight recorder: the
// "recorded pasts" substrate for retroactive parametric monitoring.
//
// The online runtimes (sequential engine, sharded runtime, remote server)
// observe an event stream once and discard it. This package makes the
// stream durable: a Writer taps every Dispatch/Free into an append-only
// segment file, and a Reader replays a stored trace — whole or
// slice-filtered — through a runtime's ID entry (the sequential engine,
// or the sharded runtime for a parallel replay), so a specification written
// after the fact can be checked against the exact past, with verdicts and
// settled counters bit-identical to online monitoring of the same stream.
//
// # On-disk format
//
// A trace file is a five-byte header ("RVTR" + version) followed by
// independent segments. Each segment is fully self-describing and
// CRC-guarded:
//
//	"RSEG"                                  segment magic
//	uvarint payloadLen                      length prefix
//	payload                                 see below
//	uint32le CRC32-IEEE(payload)            footer
//
// The payload is written and read with internal/wire's Enc and Cursor —
// unsigned varints for integers, uvarint-length-prefixed UTF-8 for
// strings — and its records are wire's record bodies:
//
//	uvarint nsyms, then per symbol: name string, uvarint paramMask
//	varint  pivot                           pivot parameter index, -1 = none
//	uvarint npivot, then npivot delta-encoded ascending pivot object IDs
//	uvarint broadcast                       events in segment not binding pivot
//	uvarint nevents                         event records in segment
//	uvarint nrecords                        total records (events + frees)
//	records                                 tagged, in stream order
//
// A record is a tag byte followed by its body: an event (tag 0; uvarint
// symbol, then one uvarint object ID per parameter in D(sym), ascending
// parameter order) or a death (tag 1; uvarint count, then the IDs of the
// objects dying at this stream position, at most wire.MaxDeathIDs of them
// — a longer death is consecutive death records). Object IDs are the
// recording heap's stable heap.Ref IDs; labels never touch the disk.
//
// The per-segment pivot index is the retroactive analogue of the
// internal/shard router: the pivot is the parameter every creation event
// binds, so every monitor instance binds it and trace slices partition by
// pivot object. A query interested in particular slices can skip a whole
// segment when the segment's pivot set contains none of its objects and
// the segment carries no broadcast (non-pivot-binding) events.
//
// Torn tails are expected, not fatal: a crashed writer leaves a final
// segment without a valid footer, and Open simply truncates the trace at
// the last intact segment (Reader.Truncated reports it).
package trace

import (
	"errors"
	"fmt"

	"rvgo/internal/param"
	"rvgo/internal/wire"
)

// Version is the trace-format version; Open refuses files written by a
// version it does not speak.
const Version = 1

// fileMagic opens a trace file; segMagic opens every segment.
const (
	fileMagic = "RVTR"
	segMagic  = "RSEG"
)

// MaxSegment bounds a segment payload (64 MiB). A length prefix beyond it
// means corruption, and scanning stops at the previous intact segment.
const MaxSegment = 1 << 26

// ErrNotTrace reports a file that does not begin with the trace header.
var ErrNotTrace = errors.New("trace: not a trace file (bad magic)")

// SymbolDef is one symbol-table entry: an event name and the parameter
// set it binds. A spec-level trace records the spec's alphabet
// (CreateForSpec); other producers — the DaCapo instrumentation recorder —
// define their own alphabet over the same container.
type SymbolDef struct {
	Name   string
	Params param.Set
}

// symTable is a decoded symbol table and the pivot recorded with it:
// the part of a segment header a Writer repeats verbatim in every
// segment. Open decodes each distinct byte image once and every segment
// carrying it shares the result, so a replay maps the recorded alphabet
// onto its query spec once per table, not once per segment.
type symTable struct {
	image []byte // the encoded table, as it appears in the payload
	syms  []SymbolDef
	arity []int // per symbol: the IDs its event records carry
	pivot int   // recording spec's pivot parameter, -1 = none
}

// segment is one intact on-disk segment as Open indexes it: the decoded
// header and where the payload lies in the file, but none of its records.
type segment struct {
	tab       *symTable
	pivLo     int    // the segment's pivot IDs are Reader.pivots[pivLo:pivHi],
	pivHi     int    // ascending
	broadcast uint64 // events not binding the pivot
	events    uint64 // event records
	records   uint64 // total records (events + frees)
	off       int64  // file offset of the payload
	size      int    // payload bytes
	recs      int    // offset of the first record within the payload
	crc       uint32 // the payload's CRC32-IEEE, as its footer gave it
}

// encodeSymbols writes the recorder's event alphabet as the segment symbol
// table. The full alphabet (not just the symbols appearing in the segment)
// keeps symbol indices identical to the recorder's, so records can carry
// the raw dispatch symbol.
func encodeSymbols(e *wire.Enc, syms []SymbolDef) {
	e.U(uint64(len(syms)))
	for _, ev := range syms {
		e.S(ev.Name)
		e.U(uint64(ev.Params))
	}
}

// skipSymbols advances d past a segment's symbol table and pivot without
// decoding them, so the table's byte image can be compared with the ones
// already decoded.
func skipSymbols(d *wire.Cursor) {
	for n := d.Count(); n > 0; n-- {
		d.Pos += d.Count() // name
		d.U()              // parameter mask
	}
	d.I()
}

// decodeSymbols decodes a symbol table and pivot from the whole of image.
func decodeSymbols(image []byte) (*symTable, error) {
	d := &wire.Cursor{Buf: image}
	t := &symTable{image: image, syms: make([]SymbolDef, d.Count())}
	t.arity = make([]int, len(t.syms))
	for i := range t.syms {
		name, m := d.S(), d.U()
		if m >= 1<<param.MaxParams {
			return nil, fmt.Errorf("trace: symbol %q has parameter mask %#x beyond MaxParams", name, m)
		}
		t.syms[i] = SymbolDef{Name: name, Params: param.Set(m)}
		t.arity[i] = t.syms[i].Params.Count()
	}
	pivot := d.I()
	if pivot < -1 || pivot >= param.MaxParams {
		return nil, fmt.Errorf("trace: pivot parameter %d out of range", pivot)
	}
	t.pivot = int(pivot)
	return t, d.Err
}

// pivotPos returns the position of parameter pivot within mask, counting
// set bits below it — the index of the pivot's object ID in a record's
// ascending-parameter ID list.
func pivotPos(mask param.Set, pivot int) int {
	return mask.Inter(param.Set(1<<uint(pivot)) - 1).Count()
}
