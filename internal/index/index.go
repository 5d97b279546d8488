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
//     maps examined a few buckets per operation; the monitors below the
//     dead key are then notified (they decide via coenable ALIVENESS
//     whether to flag themselves) and the broken mapping is removed
//     (Detach, Figure 7).
//   - Set iteration skips and compacts away monitors flagged for removal in
//     a single pass (Figure 8).
//   - A monitor instance is "collected" once every container has dropped it
//     (container refcounting plays the role of JVM reachability).
//
// Monitors are referenced by generation-tagged arena handles (see package
// arena), not pointers: a leaf's member vector contains no pointers, so the
// host garbage collector never traverses the monitor store through the
// index. Monitor behavior (death notification, the collectable check,
// container refcounting) is reached through a Resolver, which the engine
// implements over its monitor arena; every container operation takes the
// resolver explicitly so the containers themselves hold handles only.
// Iteration over a leaf goes through caller-owned scratch buffers
// (AppendLive) rather than closures, and a detached leaf's member vector is
// handed to the next leaf created — at steady state the index allocates
// nothing.
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

// Set is a compacting slice of monitor handles (RVSet). Its backing array
// is pointer-free: the collector never scans a leaf's members. The zero
// value is an empty set.
type Set struct {
	items []Handle
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Len returns the current number of members (flagged-but-unremoved members
// count until the next compaction).
func (s *Set) Len() int { return len(s.items) }

// Members returns the member vector, flagged-but-unremoved members
// included: a read-only view for invariant checks.
func (s *Set) Members() []Handle { return s.items }

// Add appends a monitor and retains it.
func (s *Set) Add(r Resolver, h Handle) {
	r.Retain(h)
	s.items = append(s.items, h)
}

// ForEach visits live members, compacting away collectable ones in the same
// pass (Figure 8). Visited monitors may become collectable during the pass
// (e.g. by reaching a final verdict); they are still compacted next time.
func (s *Set) ForEach(r Resolver, f func(Handle)) {
	w := 0
	for _, h := range s.items {
		if r.Collectable(h) {
			r.Release(h)
			continue
		}
		s.items[w] = h
		w++
		f(h)
	}
	s.items = s.items[:w]
}

// AppendLive compacts the set exactly like ForEach — collectable members
// are released and removed — and appends the surviving members to buf,
// returning the extended slice. It is the closure-free iteration used on
// the dispatch hot path: the engine reuses one scratch buffer across
// events, so visiting a leaf allocates nothing once the buffer has grown to
// the high-water mark. The returned members were all live at snapshot time;
// a member flagged while the caller walks the buffer must be re-checked by
// the caller (exactly as ForEach re-checks at visit time).
func (s *Set) AppendLive(r Resolver, buf []Handle) []Handle {
	w := 0
	for _, h := range s.items {
		if r.Collectable(h) {
			r.Release(h)
			continue
		}
		s.items[w] = h
		w++
		buf = append(buf, h)
	}
	s.items = s.items[:w]
	return buf
}

// Compact removes collectable members without visiting.
func (s *Set) Compact(r Resolver) { s.ForEach(r, func(Handle) {}) }

// CompactWith removes collectable members and members for which drop
// returns true (used by the engine's weak domain registries: a member
// whose bound parameter object died would be unreachable through any weak
// key, so registries release it too).
func (s *Set) CompactWith(r Resolver, drop func(Handle) bool) {
	w := 0
	for _, h := range s.items {
		if r.Collectable(h) || drop(h) {
			r.Release(h)
			continue
		}
		s.items[w] = h
		w++
	}
	s.items = s.items[:w]
}

// Leaf is one leaf record, M(κ, R): the monitors of domain exactly R whose
// instance extends the key tuple κ of the θ-record whose chain it is on.
type Leaf struct {
	Set
	R    param.Set
	Next Handle // the chain's next record, by ascending R
}

// Leaves is the leaf store: the pool of leaf records and the free list of
// member vectors. It holds no key — the owner of a chain keeps its head
// (the engine, in the θ-record of the key tuple) and passes it in; a chain
// has at most one record per domain. The zero value is an empty store.
type Leaves struct {
	pool arena.Pool[Leaf]
	// vecs are the member vectors of freed leaves, adopted by the next
	// leaves created: the collected garbage becomes the allocator.
	vecs [][]Handle
}

// SetChecks arms poison-on-free for the leaf records (race builds; see
// arena.Pool.SetChecks). A record is poisoned after it surrendered its
// member vector, so verify may insist that Members is nil.
func (ls *Leaves) SetChecks(poison, verify func(*Leaf)) { ls.pool.SetChecks(poison, verify) }

// At returns a live leaf record; it panics on a stale handle.
func (ls *Leaves) At(h Handle) *Leaf { return ls.pool.At(h) }

// Stats returns the leaf pool's occupancy snapshot and Vectors the length
// of the member-vector free list (tests, diagnostics).
func (ls *Leaves) Stats() arena.Stats { return ls.pool.Stats() }
func (ls *Leaves) Vectors() int       { return len(ls.vecs) }

// Reset drops every leaf record and pooled vector; chain heads kept by the
// owner become stale.
func (ls *Leaves) Reset() {
	ls.pool.Reset()
	ls.vecs = nil
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

// Insert returns the chain's leaf for domain R, linking a new record into
// the chain if it has none.
func (ls *Leaves) Insert(head *Handle, R param.Set) *Set {
	link := head
	for *link != arena.Nil {
		l := ls.pool.At(*link)
		if l.R == R {
			return &l.Set
		}
		if l.R > R {
			break
		}
		link = &l.Next
	}
	h, l := ls.pool.Alloc()
	l.R, l.Next = R, *link
	if n := len(ls.vecs); n > 0 {
		l.items, ls.vecs = ls.vecs[n-1], ls.vecs[:n-1]
	}
	*link = h
	return &l.Set
}

// free recycles an emptied leaf record, keeping its member vector for the
// next leaf: Alloc zeroes a reused record, so the vector is surrendered
// here and adopted in Insert.
func (ls *Leaves) free(h Handle, l *Leaf) {
	if l.items != nil {
		ls.vecs = append(ls.vecs, l.items[:0])
		l.items = nil
	}
	ls.pool.Free(h)
}

// AppendLive compacts every leaf of the chain and appends the surviving
// members to buf (see Set.AppendLive): the monitors more informative than
// the chain's key, whatever their domain.
func (ls *Leaves) AppendLive(r Resolver, head Handle, buf []Handle) []Handle {
	for h := head; h != arena.Nil; {
		l := ls.pool.At(h)
		buf = l.AppendLive(r, buf)
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
		l.Compact(r)
		if len(l.items) != 0 {
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
		for _, m := range l.items {
			r.NotifyParamDeath(m)
		}
		for _, m := range l.items {
			r.Release(m)
		}
		next := l.Next
		ls.free(h, l)
		h = next
	}
	*head = arena.Nil
}
