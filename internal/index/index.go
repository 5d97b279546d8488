// Package index implements what is left of the RV system's indexing trees
// (paper §4.1–§4.2, Figures 6–8) once the keys live somewhere else: the
// leaf sets of monitor instances (Set, the paper's RVSet, Figure 8) and the
// store of leaf records they sit in (Leaves).
//
// The paper nests one weak map per parameter (Figure 6's tree ⟨S⟩) because
// a JVM weak map keys on one object. Here the key tuple is a record of the
// engine's θ-table (param.Interner), which already maps every partial
// instance the engine touches, so a tree is one column of that table: the
// θ-record of a key tuple κ heads a short chain of leaf records, one per
// monitor domain R with members under κ, each holding M(κ, R) — the
// monitors of domain exactly R whose instance extends κ. This is the U
// table of Roşu & Chen's C⟨X⟩ ("the instances more informative than θ",
// keyed by the partial instance itself), partitioned by domain so a
// creation join for R never scans the members of another domain.
//
// The paper's lazy collection discipline is kept:
//
//   - No pass ever runs over monitors. A dead key is noticed by the
//     engine's periodic sweep over the *keys* (θ-records), bounded by the
//     table's size and amortised by the sweep period, where the paper's
//     maps examined a few buckets per operation — or, when the engine is
//     told each death, at the free, over the keys that bind the object;
//     the monitors below the dead key are then notified (they decide via
//     coenable ALIVENESS whether to flag themselves) and the broken
//     mapping is removed (Detach, Figure 7).
//   - Set iteration skips and compacts away monitors flagged for removal in
//     a single pass (Figure 8).
//   - A monitor instance is "collected" once every container has dropped it
//     (container refcounting plays the role of JVM reachability).
//
// Monitors are referenced by generation-tagged arena handles (see package
// arena), not pointers, and a leaf's member vector is a block of one
// pointer-free heap (arena.Blocks) that also holds the domain registries:
// a leaf record is an offset, a length, a domain and a link, so neither
// the leaf pool's slabs nor the vectors are ever scanned by the host
// garbage collector. Monitor behavior (death notification, the collectable
// check, container refcounting) is reached through a Resolver, which the
// engine implements over its monitor arena; every container operation
// takes the resolver explicitly so the containers themselves hold handles
// only. Iteration over a leaf goes through caller-owned scratch buffers
// (AppendLive) rather than closures, and a recycled leaf's block goes on
// its size's free list for the next vector of that size — once the heap
// has reached its high-water mark the index allocates nothing.
package index

import (
	"rvgo/internal/arena"
	"rvgo/internal/param"
)

// Handle identifies a record in one of the owning engine's arenas: a
// monitor instance, or a leaf record of the Leaves store.
type Handle = arena.Handle

// Resolver is the view of the monitor store the index needs: it maps a
// Handle to monitor behavior. The engine implements it over its slab arena.
// Containers never hold monitor pointers — only handles — so every
// operation that must touch a monitor takes the resolver explicitly.
type Resolver interface {
	// NotifyParamDeath tells the monitor that a parameter object below its
	// mapping died; the monitor re-evaluates its ALIVENESS formula and may
	// flag itself.
	NotifyParamDeath(h Handle)
	// Collectable reports whether the monitor has been flagged as
	// unnecessary (or terminated) and should be dropped from containers.
	Collectable(h Handle) bool
	// Retain/Release maintain the container refcount; Release must record
	// "collected" when the count reaches zero.
	Retain(h Handle)
	Release(h Handle)
}

// Set is a compacting vector of monitor handles (RVSet): the offset of its
// block in the Leaves heap that holds it and the offset just past its last
// member, so a Set is two words and holds no pointer. Every operation that
// reads or grows the members takes that Leaves. The zero value is an empty
// set with no block.
type Set struct {
	at, end uint32
}

// minSet is the capacity of a set's first block: most leaves hold one
// monitor.
const minSet = 1

// Len returns the current number of members (flagged-but-unremoved members
// count until the next compaction).
func (s *Set) Len() int { return int(s.end - s.at) }

// Members returns the member vector, flagged-but-unremoved members
// included, with the block's capacity as its capacity: a read-only view
// for invariant checks, valid until the heap next grows.
func (s *Set) Members(ls *Leaves) []Handle { return ls.heap.Block(s.at)[:s.end-s.at] }

// Full reports whether the set has no room for another member: Reserve
// would move it to a larger block.
func (s *Set) Full(ls *Leaves) bool { return s.end-s.at == ls.heap.Cap(s.at) }

// Grow makes room for n more members, so that the next n Adds need no
// Reserve.
func (s *Set) Grow(ls *Leaves, n int) {
	if want := s.end - s.at + uint32(n); want > ls.heap.Cap(s.at) {
		s.move(ls, want)
	}
}

// Reserve makes room for one more member, Add's precondition: a full set
// moves to a block twice its size.
func (s *Set) Reserve(ls *Leaves) {
	if s.Full(ls) {
		s.move(ls, max(2*(s.end-s.at), minSet))
	}
}

// move moves the members to a block of at least c entries.
func (s *Set) move(ls *Leaves, c uint32) {
	n := s.end - s.at
	s.at = ls.heap.Grow(s.at, n, c)
	s.end = s.at + n
}

// Add appends a monitor and retains it; the set must have room for it
// (Reserve). The growth lives in Reserve so that Add inlines, and a
// caller holding a concrete Resolver calls its Retain directly.
func (s *Set) Add(ls *Leaves, r Resolver, h Handle) {
	r.Retain(h)
	ls.heap.Put(s.end, h)
	s.end++
}

// ForEach visits live members, compacting away collectable ones in the same
// pass (Figure 8). Visited monitors may become collectable during the pass
// (e.g. by reaching a final verdict); they are still compacted next time.
func (s *Set) ForEach(ls *Leaves, r Resolver, f func(Handle)) {
	items := ls.heap.Entries(s.at, s.end-s.at)
	w := uint32(0)
	for _, h := range items {
		if r.Collectable(h) {
			r.Release(h)
			continue
		}
		items[w] = h
		w++
		f(h)
	}
	s.end = s.at + w
}

// AppendLive compacts the set exactly like ForEach — collectable members
// are released and removed — and appends the surviving members to buf,
// returning the extended slice. It is the closure-free iteration used on
// the dispatch hot path: the engine reuses one scratch buffer across
// events, so visiting a leaf allocates nothing once the buffer has grown to
// the high-water mark. The returned members were all live at snapshot time;
// a member flagged while the caller walks the buffer must be re-checked by
// the caller (exactly as ForEach re-checks at visit time).
func (s *Set) AppendLive(ls *Leaves, r Resolver, buf []Handle) []Handle {
	items := ls.heap.Entries(s.at, s.end-s.at)
	w := uint32(0)
	for _, h := range items {
		if r.Collectable(h) {
			r.Release(h)
			continue
		}
		items[w] = h
		w++
		buf = append(buf, h)
	}
	s.end = s.at + w
	return buf
}

// Compact removes collectable members without visiting.
func (s *Set) Compact(ls *Leaves, r Resolver) { s.ForEach(ls, r, func(Handle) {}) }

// Leaf is one leaf record, M(κ, R): the monitors of domain exactly R whose
// instance extends the key tuple κ of the θ-record whose chain it is on.
// It holds no pointer, so the leaf pool's slabs are noscan.
type Leaf struct {
	Set
	R    param.Set
	Next Handle // the chain's next record, by ascending R
}

// Leaves is the leaf store: the pool of leaf records and the block heap
// that holds their member vectors. Sets kept elsewhere (the engine's
// domain registries) keep their members in the same heap, and its owner
// may carve other vectors from it (Heap). It holds no key — the owner of a
// chain keeps its head (the engine, in the θ-record of the key tuple) and
// passes it in; a chain has at most one record per domain. The zero value
// is an empty store.
type Leaves struct {
	pool arena.Pool[Leaf]
	heap arena.Blocks
}

// SetChecks arms poison-on-free for the leaf records (see
// arena.Pool.SetChecks) and for the heap's blocks. A record is poisoned
// after it released its block, so verify may insist that it has none.
func (ls *Leaves) SetChecks(poison, verify func(*Leaf)) {
	ls.pool.SetChecks(poison, verify)
	ls.heap.SetChecks(poison != nil)
}

// Heap returns the block heap the member vectors live in.
func (ls *Leaves) Heap() *arena.Blocks { return &ls.heap }

// At returns a live leaf record; it panics on a stale handle.
func (ls *Leaves) At(h Handle) *Leaf { return ls.pool.At(h) }

// Stats returns the leaf pool's occupancy snapshot (tests, diagnostics).
func (ls *Leaves) Stats() arena.Stats { return ls.pool.Stats() }

// Reset drops every leaf record and every block; chain heads and sets kept
// by the owner become stale.
func (ls *Leaves) Reset() {
	ls.pool.Reset()
	ls.heap.Reset()
}

// Find returns the chain's leaf for domain R, or nil.
func (ls *Leaves) Find(head Handle, R param.Set) *Set {
	for h := head; h != arena.Nil; {
		l := ls.pool.At(h)
		if l.R == R {
			return &l.Set
		}
		h = l.Next
	}
	return nil
}

// Insert returns the chain's leaf for domain R with room for one more
// member (Set.Reserve), linking a new record into the chain if it has none.
func (ls *Leaves) Insert(head *Handle, R param.Set) *Set {
	link := head
	for *link != arena.Nil {
		l := ls.pool.At(*link)
		if l.R == R {
			l.Reserve(ls)
			return &l.Set
		}
		if l.R > R {
			break
		}
		link = &l.Next
	}
	h, l := ls.pool.Alloc()
	l.R, l.Next = R, *link
	*link = h
	l.Reserve(ls)
	return &l.Set
}

// AppendLive compacts every leaf of the chain and appends the surviving
// members to buf (see Set.AppendLive): the monitors more informative than
// the chain's key, whatever their domain.
func (ls *Leaves) AppendLive(r Resolver, head Handle, buf []Handle) []Handle {
	for h := head; h != arena.Nil; {
		l := ls.pool.At(h)
		buf = l.AppendLive(ls, r, buf)
		h = l.Next
	}
	return buf
}

// Compact compacts every leaf of the chain without visiting and recycles
// the leaves that emptied (the paper drops mappings to empty structures,
// §5.1.1).
func (ls *Leaves) Compact(r Resolver, head *Handle) {
	for link := head; *link != arena.Nil; {
		h := *link
		l := ls.pool.At(h)
		l.Compact(ls, r)
		if l.end != l.at {
			link = &l.Next
			continue
		}
		*link = l.Next
		ls.free(h, l)
	}
}

// Detach removes the chain of a key tuple one of whose objects died
// (Figure 7): the monitors of each leaf are notified, then released, and
// the leaf records are recycled. The head is left Nil.
func (ls *Leaves) Detach(r Resolver, head *Handle) {
	for h := *head; h != arena.Nil; {
		l := ls.pool.At(h)
		items := ls.heap.Entries(l.at, l.end-l.at)
		for _, m := range items {
			r.NotifyParamDeath(m)
		}
		for _, m := range items {
			r.Release(m)
		}
		next := l.Next
		ls.free(h, l)
		h = next
	}
	*head = arena.Nil
}

// free recycles an emptied leaf record and releases its block for the next
// vector of its size.
func (ls *Leaves) free(h Handle, l *Leaf) {
	if l.at != 0 {
		ls.heap.Release(l.at)
	}
	ls.pool.Free(h)
}
