package trace

import (
	"fmt"
	"slices"

	"rvgo/internal/monitor"
	"rvgo/internal/shard"
	"rvgo/internal/wire"
)

// Target is what a replay drives: a runtime that takes objects by ID, the
// sequential engine (monitor.Engine) or the sharded runtime. A replayed
// object is its recorded ID, not a fresh heap object, so replayed verdict
// instances, index keys and pivot routing agree bit-for-bit with the
// recording run, and verdicts label it r<id>.
type Target interface {
	Spec() *monitor.Spec
	DispatchIDs(sym int, ids []uint64)
	FreeIDs(ids []uint64)
}

// ReplayOptions configures a sequential replay.
type ReplayOptions struct {
	// Pivots restricts replay to the slices of these pivot objects
	// (recorded object IDs, any order): events binding a different pivot
	// are skipped, and segments indexing none of them (with no broadcast
	// events) are skimmed instead of dispatched. nil replays everything.
	// Sound because slices of distinct pivot objects are independent
	// (paper §2) and every monitor instance binds the pivot.
	Pivots []uint64
}

// ReplayStats reports what a replay actually touched.
type ReplayStats struct {
	Events          uint64 // event records dispatched
	Broadcast       uint64 // dispatched events not binding the query pivot (all, with no pivot)
	Frees           uint64 // free records applied
	EventsSkipped   uint64 // events skipped by the pivot filter
	SegmentsSkimmed int    // segments the pivot index let the replay skip
	UnknownSkipped  uint64 // events whose name the query spec lacks
}

// symMap maps one recorded symbol table onto the query spec's: a trace
// records the alphabet of the spec that was monitored, a retroactive
// query replays it against a possibly different spec, matched by event
// name.
type symMap struct {
	tab     *symTable
	syms    []symMapping // per recorded symbol
	indexOK bool         // the pivot index is valid for the query pivot
}

type symMapping struct {
	to     int  // query symbol, -1 = not in query spec
	qbinds bool // the recorded symbol binds the query pivot
	qpos   int  // query pivot ID position in the record's ID list
}

// mapSymbols builds the recorded→query symbol mapping for one symbol table
// and decides whether the pivot index of the segments carrying it may
// accelerate this query. The index was built over the recording spec's
// pivot parameter; it is valid for the query iff, for every shared event,
// the recorded pivot and the query pivot occupy the same position in the
// event's ID list — then "pivot object of a record" names the same ID
// either way. Otherwise the index is ignored (replay stays correct, just
// unaccelerated).
func mapSymbols(tab *symTable, qspec *monitor.Spec, qpivot int) (*symMap, error) {
	m := &symMap{tab: tab, syms: make([]symMapping, len(tab.syms))}
	m.indexOK = tab.pivot >= 0 && qpivot >= 0
	for i, sd := range tab.syms {
		rbinds := tab.pivot >= 0 && sd.Params.Has(tab.pivot)
		rpos := 0
		if rbinds {
			rpos = pivotPos(sd.Params, tab.pivot)
		}
		sm := &m.syms[i]
		sm.to = -1
		qsym, ok := qspec.Symbol(sd.Name)
		if !ok {
			continue
		}
		qmask := qspec.Events[qsym].Params
		if qmask.Count() != tab.arity[i] {
			return nil, fmt.Errorf("trace: event %q recorded with %d objects but query spec binds %d parameters",
				sd.Name, tab.arity[i], qmask.Count())
		}
		sm.to = qsym
		sm.qbinds = qpivot >= 0 && qmask.Has(qpivot)
		if sm.qbinds {
			sm.qpos = pivotPos(qmask, qpivot)
		}
		// Index validity: recorded and query pivot must pick the same ID
		// out of every shared event's record.
		if rbinds != sm.qbinds || (rbinds && rpos != sm.qpos) {
			m.indexOK = false
		}
	}
	return m, nil
}

// objTable keeps the state of every recorded object ID the replay has met:
// unseen, live (dispatched) or dead (freed after that). Recorded heap IDs
// are allocated sequentially from 1, so a dense slice serves the hot path;
// a map catches arbitrarily large IDs (a trace recorded from a frontend
// with its own handle space).
type objTable struct {
	dense  []objState
	sparse map[uint64]objState
	n      int // objects dispatched
	died   int // of them, objects dead
}

type objState uint8

const (
	unseen objState = iota
	live
	dead
)

// maxDenseID bounds the dense table (1 byte/slot); IDs beyond it spill to
// the map.
const maxDenseID = 1 << 22

// see records that an event names id: an unseen object becomes live.
func (t *objTable) see(id uint64) {
	if id < maxDenseID {
		if n := uint64(len(t.dense)); id >= n {
			t.dense = append(t.dense, make([]objState, id+1-n)...)
		}
		if t.dense[id] == unseen {
			t.dense[id] = live
			t.n++
		}
		return
	}
	if _, ok := t.sparse[id]; !ok {
		if t.sparse == nil {
			t.sparse = map[uint64]objState{}
		}
		t.sparse[id] = live
		t.n++
	}
}

// kill marks a live id dead, reporting whether it was live: the death of
// an unseen or already dead object is a no-op.
func (t *objTable) kill(id uint64) bool {
	switch {
	case id < uint64(len(t.dense)) && t.dense[id] == live:
		t.dense[id] = dead
	case id >= maxDenseID && t.sparse[id] == live:
		t.sparse[id] = dead
	default:
		return false
	}
	t.died++
	return true
}

// replayer is the per-replay state shared by the segment loop.
type replayer struct {
	r      *Reader
	src    *source
	rt     Target
	qspec  *monitor.Spec
	qpivot int
	want   []uint64  // the queried pivots, ascending; nil = every slice
	maps   []*symMap // one per distinct symbol table met so far
	objs   objTable
	ids    []uint64
	stats  ReplayStats
}

// Replay replays the trace sequentially through rt, handing it the recorded
// object IDs: each event goes to rt.DispatchIDs, and each free record
// becomes one rt.FreeIDs call at its stream position, naming the record's
// IDs that this replay dispatched and has not yet freed, each once. Every
// event before the call saw them alive, every event after it sees them
// dead, exactly as in the online run. Events whose name the query spec
// does not define are skipped (the trace may record a richer alphabet than
// the retroactive spec cares about). The caller flushes and reads stats.
func (r *Reader) Replay(rt Target, opts ReplayOptions) (ReplayStats, error) {
	rp := &replayer{r: r, src: &source{r: r}, rt: rt, qspec: rt.Spec()}
	defer rp.src.close()
	// The query pivot tells the broadcast events of any replay apart.
	qpivot, err := shard.Pivot(rp.qspec)
	if err != nil {
		qpivot = -1
	}
	rp.qpivot = qpivot
	if len(opts.Pivots) > 0 {
		if err != nil {
			return ReplayStats{}, err
		}
		// With no pivot there are no slices to select: no event would be
		// filtered, and every slice would be replayed.
		if qpivot < 0 {
			return ReplayStats{}, fmt.Errorf("trace: spec %q has no pivot parameter; pivot-selective replay requires one", rp.qspec.Name)
		}
		rp.want = slices.Clone(opts.Pivots)
		slices.Sort(rp.want)
	}
	for si := range r.segs {
		if err := rp.segment(si); err != nil {
			return rp.stats, fmt.Errorf("trace: segment %d: %w", si, err)
		}
	}
	return rp.stats, nil
}

// selected reports whether the slice of pivot object id is this replay's:
// no query was given, or id is a queried pivot.
func (rp *replayer) selected(id uint64) bool {
	if rp.want == nil {
		return true
	}
	_, ok := slices.BinarySearch(rp.want, id)
	return ok
}

// owns reports whether any of the segment's pivot objects is selected.
func (rp *replayer) owns(pivotIDs []uint64) bool {
	for _, id := range pivotIDs {
		if rp.selected(id) {
			return true
		}
	}
	return false
}

// segment replays segment si, loading it from the file only if it has
// something to deliver.
//
// Slice skipping. In a pivot-selective replay, a segment whose pivot index
// names no object this replay owns — and with no broadcast
// (non-pivot-binding) events, which could touch any slice — dispatches
// nothing here. It may still *free* objects dispatched from earlier
// segments, so it is skimmed (deaths applied, dispatch skipped) rather
// than ignored — but only while some object this replay dispatched is
// still alive: a death of an unseen or already dead object is a no-op, so
// once every dispatched object has died the skim has nothing left to apply
// and the segment is not even read.
func (rp *replayer) segment(si int) error {
	seg := &rp.r.segs[si]
	sm, err := rp.symMap(seg.tab)
	if err != nil {
		return err
	}
	skim := rp.want != nil && sm.indexOK && seg.broadcast == 0 && !rp.owns(rp.r.pivotIDs(si))
	if skim {
		rp.stats.SegmentsSkimmed++
		rp.stats.EventsSkipped += seg.events
		if rp.objs.n == rp.objs.died || seg.records == seg.events {
			return nil
		}
	}
	recs, err := rp.src.load(si)
	if err != nil {
		return err
	}
	// In skim mode event records are decoded past without dispatching
	// (their slices are not owned) while free records are still applied
	// to already-dispatched objects — the deaths of a slice's objects may
	// fall in segments the slice's events do not.
	d := wire.Cursor{Buf: recs}
	for rec := uint64(0); rec < seg.records; rec++ {
		var rsym int
		if rsym, rp.ids = d.Record(rp.ids[:0], seg.tab.arity); d.Err != nil {
			return d.Err
		}
		if rsym < 0 {
			// Only objects this replay dispatched can be bound by a live
			// monitor here; deaths of unseen objects are no-ops, exactly as
			// in the online runtimes. A record may name one ID twice: kill
			// keeps the first.
			dying := rp.ids[:0]
			for _, id := range rp.ids {
				if rp.objs.kill(id) {
					dying = append(dying, id)
				}
			}
			if len(dying) > 0 {
				rp.rt.FreeIDs(dying)
				rp.stats.Frees++
				if skim && rp.objs.n == rp.objs.died {
					return nil
				}
			}
			continue
		}
		if skim {
			continue
		}
		m := &sm.syms[rsym]
		if m.to < 0 {
			rp.stats.UnknownSkipped++
			continue
		}
		if m.qbinds {
			if !rp.selected(rp.ids[m.qpos]) {
				rp.stats.EventsSkipped++
				continue
			}
		} else {
			rp.stats.Broadcast++
		}
		for _, id := range rp.ids {
			rp.objs.see(id)
		}
		rp.rt.DispatchIDs(m.to, rp.ids)
		rp.stats.Events++
	}
	return nil
}

// symMap returns the query mapping of tab, built on first use.
func (rp *replayer) symMap(tab *symTable) (*symMap, error) {
	for _, sm := range rp.maps {
		if sm.tab == tab {
			return sm, nil
		}
	}
	sm, err := mapSymbols(tab, rp.qspec, rp.qpivot)
	if err != nil {
		return nil, err
	}
	rp.maps = append(rp.maps, sm)
	return sm, nil
}
