// Package arena implements uint32-indexed slab arenas: dense, index-
// addressed storage for the monitoring engine's bulk state, designed so
// the *host* garbage collector never traverses it.
//
// The motivating failure mode is ironic for this codebase: an engine built
// to garbage-collect *monitors* aggressively was itself a Go-GC burden,
// because every monitor, index-tree leaf member and parameter instance was
// an individual heap object the collector had to discover and mark. At
// millions of live monitors the mark phase scans millions of objects that
// the engine already tracks precisely. A slab arena removes them from the
// collector's world: records live in large fixed-size slabs, references
// between them are uint32 indices rather than pointers, and when the
// record type T contains no pointers the slabs are noscan allocations the
// collector never looks inside — the monitor store's GC cost becomes
// O(slabs), not O(monitors). This is the elib.Heap / gentemplate pool
// idiom from production Go dataplanes, specialized to fixed-size records.
//
// Handles are generation-tagged: a Handle packs a 32-bit slot index with
// the slot's 32-bit allocation generation, and every dereference checks
// the tag, so a stale handle (use-after-free, or an ABA reuse of the slot)
// fails loudly instead of silently aliasing an unrelated record.
// Reclamation is a free-list push — index recycling is O(1) and the freed
// garbage literally becomes the allocator, exactly the discipline the
// engine already applied to its pooled monitors.
//
// Each record type gets its own Pool (its own size class); free lists are
// per-pool, so allocation never searches and never splits. Pools are not
// safe for concurrent use: each engine owns its pools, mirroring the
// per-shard ownership invariant of the sharded runtime (a handle must
// never cross shards — see DESIGN.md "arena store").
package arena

import (
	"fmt"
	"iter"
)

const (
	// slabShift sizes a slab at 4096 records: large enough that slab count
	// stays trivial at 10M+ records, small enough that a nearly idle
	// engine wastes at most one slab per pool.
	slabShift = 12
	// SlabSize is the number of records per slab.
	SlabSize = 1 << slabShift
	slabMask = SlabSize - 1
)

// Handle is a generation-tagged reference to a pool slot: the high 32 bits
// are the slot's allocation generation (odd while live), the low 32 bits
// the slot index plus one. The zero Handle is Nil and never issued.
type Handle uint64

// Nil is the invalid handle.
const Nil Handle = 0

// IsNil reports whether the handle is the zero handle.
func (h Handle) IsNil() bool { return h == Nil }

// Index returns the slot index. Undefined on Nil.
func (h Handle) Index() uint32 { return uint32(h) - 1 }

func (h Handle) gen() uint32 { return uint32(h >> 32) }

func makeHandle(gen, idx uint32) Handle {
	return Handle(gen)<<32 | Handle(idx+1)
}

// String renders the handle for diagnostics.
func (h Handle) String() string {
	if h.IsNil() {
		return "arena.Nil"
	}
	return fmt.Sprintf("arena.Handle(%d@g%d)", h.Index(), h.gen())
}

// Stats is a point-in-time occupancy snapshot of a pool.
type Stats struct {
	Slabs     int // slabs allocated
	Cap       int // record capacity (Slabs * SlabSize)
	Live      int // records currently allocated
	Free      int // records on the free list (Cap - Live - never-used)
	HighWater int // maximum of Live over the pool's lifetime
}

// Occupancy returns Live/Cap in [0,1]; 0 for an empty pool.
func (s Stats) Occupancy() float64 {
	if s.Cap == 0 {
		return 0
	}
	return float64(s.Live) / float64(s.Cap)
}

// Fragmentation returns the fraction of ever-used capacity that sits on
// the free list: Free/(Live+Free). 0 for a pool with no free records.
func (s Stats) Fragmentation() float64 {
	if s.Live+s.Free == 0 {
		return 0
	}
	return float64(s.Free) / float64(s.Live+s.Free)
}

// Pool is a slab arena for records of type T. The zero value is ready to
// use. If T contains no pointer-typed fields, the slabs are noscan: the Go
// collector never traverses the pool's contents regardless of how many
// records are live.
type Pool[T any] struct {
	slabs [][]T
	// gens holds each slot's generation, parallel to slabs. A slot is live
	// while its generation is odd; Alloc and Free each increment it, so a
	// handle's tag matches exactly while its allocation is current.
	gens [][]uint32
	// free is the LIFO free list of recycled slot indices. A slice (not an
	// intrusive list threaded through T) so that T stays fully caller-
	// defined and the list itself is one noscan allocation.
	free   []uint32
	next   uint32 // next never-used slot index
	live   int
	high   int
	reused uint64 // allocations served from the free list
	// poison is run on every Free and verify on every Alloc that reuses a
	// freed slot; installed by race/testing builds to scramble freed
	// records and assert the scramble is intact on reuse, so a straggling
	// stale reference that writes through a dangling pointer is caught at
	// the recycle point even if it dodged a generation check.
	poison, verify func(*T)
}

// SetChecks installs the poison/verify pair; see Pool.poison. Either may
// be nil. Intended for race-armed builds: the checks run on the Free and
// Alloc cold paths only.
func (p *Pool[T]) SetChecks(poison, verify func(*T)) {
	p.poison, p.verify = poison, verify
}

// Alloc returns a fresh handle and a pointer to its (zeroed) record. The
// pointer is stable for the lifetime of the allocation: slabs are never
// moved or resized.
func (p *Pool[T]) Alloc() (Handle, *T) {
	var idx uint32
	if n := len(p.free); n > 0 {
		idx = p.free[n-1]
		p.free = p.free[:n-1]
		r := &p.slabs[idx>>slabShift][idx&slabMask]
		if p.verify != nil {
			p.verify(r)
		}
		var zero T
		*r = zero
		p.reused++
	} else {
		idx = p.next
		p.next++
		if int(idx>>slabShift) == len(p.slabs) {
			p.slabs = append(p.slabs, make([]T, SlabSize))
			p.gens = append(p.gens, make([]uint32, SlabSize))
		}
	}
	g := &p.gens[idx>>slabShift][idx&slabMask]
	*g++ // even (free) -> odd (live)
	p.live++
	if p.live > p.high {
		p.high = p.live
	}
	return makeHandle(*g, idx), &p.slabs[idx>>slabShift][idx&slabMask]
}

// At returns the record for a live handle, panicking on Nil or on a stale
// handle (freed slot, or a slot recycled to a newer generation). The
// generation check is two array reads and a compare — cheap enough for
// every hot-path dereference.
func (p *Pool[T]) At(h Handle) *T {
	idx := uint32(h) - 1
	si, so := idx>>slabShift, idx&slabMask
	if h == Nil || int(si) >= len(p.slabs) || p.gens[si][so] != h.gen() {
		panic(fmt.Sprintf("arena: stale handle %v (use-after-free or ABA reuse)", h))
	}
	return &p.slabs[si][so]
}

// Get returns the record for the handle, or nil/false if the handle is
// Nil or stale.
func (p *Pool[T]) Get(h Handle) (*T, bool) {
	if h == Nil {
		return nil, false
	}
	idx := uint32(h) - 1
	si, so := idx>>slabShift, idx&slabMask
	if int(si) >= len(p.slabs) || p.gens[si][so] != h.gen() {
		return nil, false
	}
	return &p.slabs[si][so], true
}

// Alive reports whether the handle currently addresses a live record.
func (p *Pool[T]) Alive(h Handle) bool {
	_, ok := p.Get(h)
	return ok
}

// Free recycles a live handle's slot onto the free list. The slot's
// generation advances, so the handle (and any copy of it) is immediately
// stale; a later Alloc may reuse the index under a new generation.
func (p *Pool[T]) Free(h Handle) {
	r := p.At(h) // validates
	if p.poison != nil {
		p.poison(r)
	}
	idx := uint32(h) - 1
	p.gens[idx>>slabShift][idx&slabMask]++ // odd (live) -> even (free)
	p.free = append(p.free, idx)
	p.live--
}

// All iterates the live records in slot-index order — the deterministic
// walk order for everything that visits a whole pool. The body may free
// the record it is handed (and any other); records allocated during the
// walk may or may not be visited.
func (p *Pool[T]) All() iter.Seq2[Handle, *T] {
	return func(yield func(Handle, *T) bool) {
		for idx := uint32(0); idx < p.next; idx++ {
			if g := p.gens[idx>>slabShift][idx&slabMask]; g&1 != 0 &&
				!yield(makeHandle(g, idx), &p.slabs[idx>>slabShift][idx&slabMask]) {
				return
			}
		}
	}
}

// Live returns the number of currently allocated records.
func (p *Pool[T]) Live() int { return p.live }

// Reused returns the number of allocations served from the free list over
// the pool's lifetime — the recycling hit count.
func (p *Pool[T]) Reused() uint64 { return p.reused }

// Cap returns the pool's record capacity.
func (p *Pool[T]) Cap() int { return len(p.slabs) * SlabSize }

// Stats returns the occupancy snapshot.
func (p *Pool[T]) Stats() Stats {
	return Stats{
		Slabs:     len(p.slabs),
		Cap:       len(p.slabs) * SlabSize,
		Live:      p.live,
		Free:      len(p.free),
		HighWater: p.high,
	}
}

// Reset drops every slab and forgets every allocation. All outstanding
// handles become stale (their slabs are gone, so At panics and Get reports
// false). Used when an engine closes: one Reset returns the whole monitor
// store to the host allocator regardless of how many records were live.
func (p *Pool[T]) Reset() {
	p.slabs, p.gens, p.free = nil, nil, nil
	p.next, p.live = 0, 0
}
