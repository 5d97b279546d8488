package trace

import (
	"fmt"
	"sync/atomic"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/shard"
)

// obj is a replayed parameter object. Its ID is the recorded object ID —
// not a fresh heap ID — so replayed verdict instances, indexing-tree keys
// and pivot routing agree bit-for-bit with the recording run.
type obj struct {
	id   uint64
	dead atomic.Bool
}

func (o *obj) ID() uint64    { return o.id }
func (o *obj) Alive() bool   { return !o.dead.Load() }
func (o *obj) Label() string { return fmt.Sprintf("r%d", o.id) }

// ReplayOptions configures a sequential replay.
type ReplayOptions struct {
	// Pivots restricts replay to the slices of these pivot objects
	// (recorded object IDs, any order): events binding a different pivot
	// are skipped, and segments indexing none of them (with no broadcast
	// events) are skimmed instead of dispatched. nil replays everything.
	// Sound because slices of distinct pivot objects are independent
	// (paper §2) and every monitor instance binds the pivot.
	Pivots []uint64
	// workers/self partition pivot-binding events across parallel replay
	// workers (set by ReplayParallel); zero values disable partitioning.
	workers int
	self    int
}

// ReplayStats reports what a replay actually touched.
type ReplayStats struct {
	Events          uint64 // event records dispatched
	Broadcast       uint64 // dispatched events not binding the query pivot
	Frees           uint64 // free records applied
	EventsSkipped   uint64 // events skipped by pivot filter or partition
	SegmentsSkimmed int    // segments the pivot index let the replay skip
	UnknownSkipped  uint64 // events whose name the query spec lacks
}

// symMap is the per-segment mapping from recorded symbols to the query
// spec's: a trace records the alphabet of the spec that was monitored, a
// retroactive query replays it against a possibly different spec, matched
// by event name.
type symMap struct {
	to      []int       // recorded sym -> query sym, -1 = not in query spec
	mask    []param.Set // query D(sym) for mapped symbols
	arity   []int       // recorded D(sym) arity (ID count in records)
	qbinds  []bool      // recorded sym binds the query pivot
	qpos    []int       // query pivot ID position in the record's ID list
	indexOK bool        // segment pivot index is valid for the query pivot
}

// mapSymbols builds the recorded→query symbol mapping for one segment and
// decides whether the segment's pivot index may accelerate this query.
// The index was built over the recording spec's pivot parameter; it is
// valid for the query iff, for every shared event, the recorded pivot and
// the query pivot occupy the same position in the event's ID list — then
// "pivot object of a record" names the same ID either way. Otherwise the
// index is ignored (replay stays correct, just unaccelerated).
func mapSymbols(hdr *segHeader, qspec *monitor.Spec, qpivot int) (*symMap, error) {
	m := &symMap{
		to:     make([]int, len(hdr.syms)),
		mask:   make([]param.Set, len(hdr.syms)),
		arity:  make([]int, len(hdr.syms)),
		qbinds: make([]bool, len(hdr.syms)),
		qpos:   make([]int, len(hdr.syms)),
	}
	m.indexOK = hdr.pivot >= 0 && qpivot >= 0
	for i, sd := range hdr.syms {
		m.arity[i] = sd.Params.Count()
		rbinds := hdr.pivot >= 0 && sd.Params.Has(hdr.pivot)
		rpos := 0
		if rbinds {
			rpos = pivotPos(sd.Params, hdr.pivot)
		}
		m.to[i] = -1
		qsym, ok := qspec.Symbol(sd.Name)
		if !ok {
			continue
		}
		qmask := qspec.Events[qsym].Params
		if qmask.Count() != m.arity[i] {
			return nil, fmt.Errorf("trace: event %q recorded with %d objects but query spec binds %d parameters",
				sd.Name, m.arity[i], qmask.Count())
		}
		m.to[i] = qsym
		m.mask[i] = qmask
		m.qbinds[i] = qpivot >= 0 && qmask.Has(qpivot)
		if m.qbinds[i] {
			m.qpos[i] = pivotPos(qmask, qpivot)
		}
		// Index validity: recorded and query pivot must pick the same ID
		// out of every shared event's record.
		if rbinds != m.qbinds[i] || (rbinds && rpos != m.qpos[i]) {
			m.indexOK = false
		}
	}
	return m, nil
}

// objTable maps recorded object IDs to replayed objects. Recorded heap
// IDs are allocated sequentially from 1, so a dense slice serves the hot
// path; a map catches arbitrarily large IDs (a trace recorded from a
// frontend with its own handle space).
type objTable struct {
	dense  []*obj
	sparse map[uint64]*obj
	n      int // objects materialized
}

// maxDenseID bounds the dense table (8 bytes/slot); IDs beyond it spill
// to the map.
const maxDenseID = 1 << 22

func (t *objTable) lookup(id uint64) *obj {
	if id < uint64(len(t.dense)) {
		return t.dense[id]
	}
	return t.sparse[id]
}

func (t *objTable) materialize(id uint64) *obj {
	if id < maxDenseID {
		for uint64(len(t.dense)) <= id {
			t.dense = append(t.dense, nil)
		}
		if o := t.dense[id]; o != nil {
			return o
		}
		o := &obj{id: id}
		t.dense[id] = o
		t.n++
		return o
	}
	if o := t.sparse[id]; o != nil {
		return o
	}
	if t.sparse == nil {
		t.sparse = map[uint64]*obj{}
	}
	o := &obj{id: id}
	t.sparse[id] = o
	t.n++
	return o
}

// replayer is the per-replay state shared by the segment loop.
type replayer struct {
	rt    monitor.Runtime
	opts  ReplayOptions
	want  map[uint64]struct{}
	objs  objTable
	refs  []heap.Ref
	ids   []uint64
	dying []*obj
	stats ReplayStats
}

// Replay replays the trace sequentially through rt, materializing one
// replayed object per recorded ID and positioning each free record exactly
// as the online drivers do: rt.Free first (the runtime positions the death
// behind every prior event, which observes the objects alive), then the
// objects are marked dead. rt may be any backend — the sequential engine, the sharded
// runtime, a remote client. Events whose name the query spec does not
// define are skipped (the trace may record a richer alphabet than the
// retroactive spec cares about). The caller flushes and reads stats.
func (r *Reader) Replay(rt monitor.Runtime, opts ReplayOptions) (ReplayStats, error) {
	qspec := rt.Spec()
	qpivot := -1
	if opts.workers > 1 || len(opts.Pivots) > 0 {
		router, err := shard.NewRouter(qspec, 2)
		if err != nil {
			return ReplayStats{}, err
		}
		// With no pivot there are no slices to select or partition: no
		// event would be filtered, and every slice would be replayed.
		if qpivot = router.Pivot(); qpivot < 0 {
			return ReplayStats{}, fmt.Errorf("trace: spec %q has no pivot parameter; parallel and pivot-selective replay require one", qspec.Name)
		}
	}
	rp := &replayer{rt: rt, opts: opts}
	if len(opts.Pivots) > 0 {
		rp.want = make(map[uint64]struct{}, len(opts.Pivots))
		for _, id := range opts.Pivots {
			rp.want[id] = struct{}{}
		}
	}
	for si, seg := range r.segs {
		sm, err := mapSymbols(seg.hdr, qspec, qpivot)
		if err != nil {
			return rp.stats, fmt.Errorf("trace: segment %d: %w", si, err)
		}
		// Slice skipping. A segment whose pivot index names no object this
		// replay owns — and with no broadcast (non-pivot-binding) events,
		// which could touch any slice — dispatches nothing here. It may
		// still *free* objects materialized from earlier segments, so it
		// is skimmed (deaths applied, dispatch skipped) rather than
		// ignored; when nothing has been materialized yet even the skim is
		// unnecessary.
		if sm.indexOK && seg.hdr.broadcast == 0 && !rp.owns(seg.hdr.pivotIDs) {
			rp.stats.SegmentsSkimmed++
			rp.stats.EventsSkipped += seg.hdr.events
			if rp.objs.n == 0 || seg.hdr.records == seg.hdr.events {
				continue
			}
			if err := rp.segment(seg, sm, true); err != nil {
				return rp.stats, fmt.Errorf("trace: segment %d: %w", si, err)
			}
			continue
		}
		if err := rp.segment(seg, sm, false); err != nil {
			return rp.stats, fmt.Errorf("trace: segment %d: %w", si, err)
		}
	}
	return rp.stats, nil
}

// owns reports whether any of the segment's pivot objects passes this
// replay's filter and partition.
func (rp *replayer) owns(pivotIDs []uint64) bool {
	for _, id := range pivotIDs {
		if rp.want != nil {
			if _, ok := rp.want[id]; !ok {
				continue
			}
		}
		if rp.opts.workers > 1 && int(shard.Mix(id)%uint64(rp.opts.workers)) != rp.opts.self {
			continue
		}
		return true
	}
	return false
}

// segment replays one segment. In skim mode event records are decoded past
// without dispatching (their slices are not owned) while free records are
// still applied to already-materialized objects — the deaths of a slice's
// objects may fall in segments the slice's events do not.
func (rp *replayer) segment(seg *segment, sm *symMap, skim bool) error {
	d := &dec{buf: seg.recs}
	for rec := uint64(0); rec < seg.hdr.records; rec++ {
		tag, err := d.b()
		if err != nil {
			return err
		}
		switch tag {
		case recEvent:
			rsym, err := d.u()
			if err != nil {
				return err
			}
			if rsym >= uint64(len(sm.to)) {
				return fmt.Errorf("symbol %d beyond table", rsym)
			}
			rp.ids = rp.ids[:0]
			for k := 0; k < sm.arity[rsym]; k++ {
				id, err := d.u()
				if err != nil {
					return err
				}
				rp.ids = append(rp.ids, id)
			}
			if skim {
				continue
			}
			qsym := sm.to[rsym]
			if qsym < 0 {
				rp.stats.UnknownSkipped++
				continue
			}
			if sm.qbinds[rsym] {
				pid := rp.ids[sm.qpos[rsym]]
				if rp.want != nil {
					if _, ok := rp.want[pid]; !ok {
						rp.stats.EventsSkipped++
						continue
					}
				}
				if rp.opts.workers > 1 && int(shard.Mix(pid)%uint64(rp.opts.workers)) != rp.opts.self {
					rp.stats.EventsSkipped++
					continue
				}
			} else {
				rp.stats.Broadcast++
			}
			rp.refs = rp.refs[:0]
			for _, id := range rp.ids {
				rp.refs = append(rp.refs, rp.objs.materialize(id))
			}
			rp.rt.Dispatch(qsym, param.Of(sm.mask[rsym], rp.refs...))
			rp.stats.Events++
		case recFree:
			n, err := d.u()
			if err != nil {
				return err
			}
			rp.refs = rp.refs[:0]
			rp.dying = rp.dying[:0]
			for k := uint64(0); k < n; k++ {
				id, err := d.u()
				if err != nil {
					return err
				}
				// Only objects this replay materialized can be bound by a
				// live monitor here; deaths of unseen objects are no-ops,
				// exactly as in the online runtimes.
				if o := rp.objs.lookup(id); o != nil && o.Alive() {
					rp.refs = append(rp.refs, o)
					rp.dying = append(rp.dying, o)
				}
			}
			if len(rp.refs) > 0 {
				rp.rt.Free(rp.refs...)
				for _, o := range rp.dying {
					o.dead.Store(true)
				}
				rp.stats.Frees++
			}
		default:
			return fmt.Errorf("unknown record tag %d", tag)
		}
	}
	return nil
}
