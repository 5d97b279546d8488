// On-disk persistence for recorded workload traces. The segment format
// of internal/trace is the repo's one trace format: a persisted workload
// trace is a segment file whose symbol alphabet is the instrumentation
// alphabet (one symbol per Op × flag combination, binding the c/i/m
// operand slots) rather than a property's event alphabet.

package dacapo

import (
	"fmt"
	"strings"

	"rvgo/internal/heap"
	"rvgo/internal/param"
	"rvgo/internal/trace"
)

// opNames is the symbol-name stem per Op, in Op order.
var opNames = [...]string{
	"itercreate", "iterhasnext", "iternext", "collupdate",
	"collsync", "mapview", "mapupdate", "mapsync",
}

// Flag bits folded into the symbol index: the boolean half of an Event.
const (
	flagFlag = 1 << iota // Event.Flag
	flagCollSynced
	flagMapSynced
	flagIsView
)

// flagChars spell the suffix of a flagged symbol name, bit order.
const flagChars = "fcmv"

func eventFlags(ev Event) int {
	f := 0
	if ev.Flag {
		f |= flagFlag
	}
	if ev.CollSynced {
		f |= flagCollSynced
	}
	if ev.MapSynced {
		f |= flagMapSynced
	}
	if ev.IsView {
		f |= flagIsView
	}
	return f
}

// fileSymbols is the persisted instrumentation alphabet: symbol index
// op<<4|flags, every symbol binding the three operand parameters
// (collection, iterator, map; ID 0 records an absent operand — heap IDs
// start at 1).
func fileSymbols() []trace.SymbolDef {
	mask := param.SetOf(0, 1, 2)
	syms := make([]trace.SymbolDef, len(opNames)<<4)
	for op, stem := range opNames {
		for f := 0; f < 16; f++ {
			name := stem
			if f != 0 {
				var sb strings.Builder
				sb.WriteString(stem)
				sb.WriteByte('+')
				for b := 0; b < 4; b++ {
					if f&(1<<b) != 0 {
						sb.WriteByte(flagChars[b])
					}
				}
				name = sb.String()
			}
			syms[op<<4|f] = trace.SymbolDef{Name: name, Params: mask}
		}
	}
	return syms
}

func refID(r heap.Ref) uint64 {
	if r == nil {
		return 0
	}
	return r.ID()
}

// WriteFile persists the trace in the segment format. Object labels are
// not persisted (the format records IDs); a reread trace replays with
// synthesized labels. There is no pivot index — a workload trace is
// replay substrate, not a retroactive-query target.
func (t *Trace) WriteFile(path string) error {
	w, err := trace.Create(path, fileSymbols(), -1, trace.WriterOptions{})
	if err != nil {
		return err
	}
	var ids [3]uint64
	for _, st := range t.Steps {
		if st.Death != nil {
			err = w.FreeIDs([]uint64{st.Death.ID()})
		} else {
			ids[0], ids[1], ids[2] = refID(st.Ev.Coll), refID(st.Ev.Iter), refID(st.Ev.Map)
			err = w.EventIDs(int(st.Ev.Op)<<4|eventFlags(st.Ev), ids[:])
		}
		if err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// fileRef is a reread trace operand: the recorded ID with a synthesized
// label. Always alive — Trace.Replay reallocates fresh heap objects and
// applies deaths itself.
type fileRef struct{ id uint64 }

func (r fileRef) ID() uint64    { return r.id }
func (r fileRef) Alive() bool   { return true }
func (r fileRef) Label() string { return fmt.Sprintf("o%d", r.id) }

func fileOperand(id uint64) heap.Ref {
	if id == 0 {
		return nil
	}
	return fileRef{id}
}

// ReadTraceFile loads a persisted workload trace. A file that is not a
// segment trace is refused with trace.ErrNotTrace.
func ReadTraceFile(path string) (*Trace, error) {
	r, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	if r.Truncated() {
		return nil, fmt.Errorf("dacapo: %s: trace has a torn tail (crashed recorder?)", path)
	}
	names := r.SymbolNames()
	tr := &Trace{}
	err = r.Scan(func(rec trace.Record) error {
		if rec.Free {
			for _, id := range rec.IDs {
				tr.Steps = append(tr.Steps, Step{Death: fileRef{id}})
			}
			return nil
		}
		if rec.Sym >= len(opNames)<<4 || len(rec.IDs) != 3 {
			return fmt.Errorf("dacapo: %s: symbol %d (%q) is not an instrumentation event", path, rec.Sym, names[rec.Sym])
		}
		f := rec.Sym & 15
		tr.Steps = append(tr.Steps, Step{Ev: Event{
			Op:         Op(rec.Sym >> 4),
			Coll:       fileOperand(rec.IDs[0]),
			Iter:       fileOperand(rec.IDs[1]),
			Map:        fileOperand(rec.IDs[2]),
			Flag:       f&flagFlag != 0,
			CollSynced: f&flagCollSynced != 0,
			MapSynced:  f&flagMapSynced != 0,
			IsView:     f&flagIsView != 0,
		}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tr, nil
}
