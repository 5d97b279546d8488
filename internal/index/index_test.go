package index_test

import (
	"fmt"
	"testing"

	"rvgo/internal/arena"
	"rvgo/internal/heap"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

// fakeMon is one observable monitor record; fakeStore is the test Resolver
// over an arena of them, mirroring how the engine resolves handles.
type fakeMon struct {
	notified  int
	flagged   bool
	refs      int
	collected bool
}

type fakeStore struct {
	pool arena.Pool[fakeMon]
}

func (s *fakeStore) alloc() index.Handle {
	h, _ := s.pool.Alloc()
	return h
}

func (s *fakeStore) allocFlagged() index.Handle {
	h, m := s.pool.Alloc()
	m.flagged = true
	return h
}

func (s *fakeStore) at(h index.Handle) *fakeMon { return s.pool.At(h) }

func (s *fakeStore) NotifyParamDeath(h index.Handle) { s.pool.At(h).notified++ }
func (s *fakeStore) Collectable(h index.Handle) bool { return s.pool.At(h).flagged }
func (s *fakeStore) Retain(h index.Handle)           { s.pool.At(h).refs++ }
func (s *fakeStore) Release(h index.Handle) {
	m := s.pool.At(h)
	m.refs--
	if m.refs <= 0 {
		m.collected = true
	}
}

// keyTable is the index as the engine builds it: a θ-table whose payload is
// the head of the key tuple's leaf chain, and the leaf store.
type keyTable struct {
	keys   *param.Interner[index.Handle]
	leaves index.Leaves
}

func newKeyTable() *keyTable { return &keyTable{keys: param.NewInterner[index.Handle]()} }

// put returns the leaf for domain R under the key tuple, creating both.
func (kt *keyTable) put(key param.Instance, R param.Set) *index.Set {
	return kt.leaves.Insert(&kt.keys.At(kt.keys.Intern(key)).Data, R)
}

// get returns the leaf for domain R under the key tuple, or nil.
func (kt *keyTable) get(key param.Instance, R param.Set) *index.Set {
	kh, ok := kt.keys.Get(key.Key())
	if !ok {
		return nil
	}
	return kt.leaves.Find(kt.keys.At(kh).Data, R)
}

// sweep is the engine's death discovery: the chain of every key tuple with
// a dead object is detached and the tuple unmapped.
func (kt *keyTable) sweep(r index.Resolver) {
	for kh, s := range kt.keys.All() {
		if !s.Inst.AllAlive() {
			kt.leaves.Detach(r, &s.Data)
			kt.keys.Unmap(kh)
		}
	}
}

// TestMapPutGet: the mapping from key tuples to leaves — once index.Map,
// now the θ-table plus the chain — finds what was put, only that, and
// keeps one record per (key, domain).
func TestMapPutGet(t *testing.T) {
	h := heap.New()
	r := &fakeStore{}
	kt := newKeyTable()
	R := param.SetOf(0, 1)
	var keys []param.Instance
	for i := 0; i < 100; i++ {
		k := param.Empty().Bind(0, h.Alloc(fmt.Sprintf("k%d", i)))
		keys = append(keys, k)
		kt.put(k, R).Add(r, r.alloc())
	}
	if n := kt.leaves.Stats().Live; n != 100 {
		t.Fatalf("leaf records = %d", n)
	}
	for _, k := range keys {
		if s := kt.get(k, R); s == nil || s.Len() != 1 {
			t.Fatalf("missing leaf under %v", k)
		}
	}
	if kt.get(param.Empty().Bind(0, h.Alloc("other")), R) != nil {
		t.Fatal("phantom key")
	}
	if kt.get(keys[0], param.SetOf(0)) != nil {
		t.Fatal("phantom domain under a present key")
	}
	// A second put under the same key and domain is the same record.
	if kt.put(keys[0], R) != kt.get(keys[0], R) || kt.leaves.Stats().Live != 100 {
		t.Fatalf("put of a present (key, domain) made a record: %d live", kt.leaves.Stats().Live)
	}
	// Another domain under the same key is its own record on the chain.
	kt.put(keys[0], param.SetOf(0)).Add(r, r.alloc())
	if kt.get(keys[0], R).Len() != 1 || kt.get(keys[0], param.SetOf(0)).Len() != 1 || kt.leaves.Stats().Live != 101 {
		t.Fatalf("chain does not partition by domain: %d live", kt.leaves.Stats().Live)
	}
}

// TestEmptyStructuresDropped: the paper drops mappings to empty data
// structures opportunistically (§5.1.1); compacting a chain recycles the
// leaves that emptied and keeps the others linked.
func TestEmptyStructuresDropped(t *testing.T) {
	r := &fakeStore{}
	var ls index.Leaves
	var head index.Handle
	stays := r.alloc()
	ls.Insert(&head, param.SetOf(0)).Add(r, r.allocFlagged())
	ls.Insert(&head, param.SetOf(0, 1)).Add(r, stays)
	ls.Insert(&head, param.SetOf(0, 2)).Add(r, r.allocFlagged())
	ls.Compact(r, &head)
	if st := ls.Stats(); st.Live != 1 || st.Free != 2 {
		t.Fatalf("emptied leaves must be recycled: %+v", st)
	}
	if ls.Find(head, param.SetOf(0)) != nil || ls.Find(head, param.SetOf(0, 2)) != nil {
		t.Fatal("an emptied leaf is still on the chain")
	}
	if s := ls.Find(head, param.SetOf(0, 1)); s == nil || s.Len() != 1 || r.at(stays).refs != 1 {
		t.Fatal("the leaf with a live member must stay")
	}
	r.at(stays).flagged = true
	ls.Compact(r, &head)
	if head != arena.Nil || ls.Stats().Live != 0 {
		t.Fatalf("chain not emptied: head %v, %+v", head, ls.Stats())
	}
}

// TestMapExpungeNotifies reproduces Figure 7: when a key's object dies and
// the death is discovered, every monitor below the mapping — in every leaf
// of the chain — is notified exactly once and released exactly once, and
// the broken mapping is removed.
func TestMapExpungeNotifies(t *testing.T) {
	h := heap.New()
	r := &fakeStore{}
	kt := newKeyTable()
	c2 := h.Alloc("c2")
	key := param.Empty().Bind(0, c2)
	mon1, mon3, mon4 := r.alloc(), r.alloc(), r.alloc()
	kt.put(key, param.SetOf(0, 1)).Add(r, mon1)
	kt.put(key, param.SetOf(0, 1)).Add(r, mon3)
	kt.put(key, param.SetOf(0)).Add(r, mon4)
	other := r.alloc()
	kt.put(param.Empty().Bind(0, h.Alloc("c1")), param.SetOf(0)).Add(r, other)
	r.Retain(mon3) // held by a second container: released here, not collected

	kt.sweep(r)
	if r.at(mon1).notified != 0 || kt.get(key, param.SetOf(0)) == nil {
		t.Fatal("nothing died yet")
	}
	h.Free(c2)
	kt.sweep(r)
	for _, m := range []index.Handle{mon1, mon3, mon4} {
		if r.at(m).notified != 1 {
			t.Fatalf("monitor below the dead key notified %d times, want once", r.at(m).notified)
		}
	}
	if kt.get(key, param.SetOf(0, 1)) != nil || kt.get(key, param.SetOf(0)) != nil {
		t.Fatal("broken mapping must be removed")
	}
	if r.at(mon1).refs != 0 || !r.at(mon1).collected || !r.at(mon4).collected {
		t.Fatal("detach must release contained monitors")
	}
	if r.at(mon3).refs != 1 || r.at(mon3).collected {
		t.Fatalf("a monitor another container holds is released once: refs %d", r.at(mon3).refs)
	}
	if r.at(other).notified != 0 || r.at(other).refs != 1 {
		t.Fatal("a live key's leaf must be left alone")
	}
	if st := kt.leaves.Stats(); st.Live != 1 || st.Free != 2 {
		t.Fatalf("leaf records of the dead key not recycled: %+v", st)
	}
}

// TestLeafVectorReuse: a detached leaf's member vector is adopted by the
// next leaf created, so detach-then-add allocates nothing at steady state.
func TestLeafVectorReuse(t *testing.T) {
	r := &fakeStore{}
	var ls index.Leaves
	m := r.alloc()
	var head index.Handle
	cycle := func() {
		ls.Insert(&head, param.SetOf(0, 1)).Add(r, m)
		ls.Insert(&head, param.SetOf(0)).Add(r, m)
		ls.Detach(r, &head)
	}
	cycle()
	if ls.Vectors() != 2 || ls.Stats().Live != 0 || head != arena.Nil {
		t.Fatalf("detach keeps %d vectors, %+v", ls.Vectors(), ls.Stats())
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("detach-then-add allocates %.2f times per cycle, want 0", avg)
	}
	if ls.Vectors() != 2 || ls.Stats().Slabs != 1 {
		t.Fatalf("free lists grew: %d vectors, %+v", ls.Vectors(), ls.Stats())
	}
}

// TestSetCompaction reproduces Figure 8: iterating a set skips and removes
// collectable monitors in one pass.
func TestSetCompaction(t *testing.T) {
	r := &fakeStore{}
	s := index.NewSet()
	var mons []index.Handle
	for i := 0; i < 10; i++ {
		m := r.alloc()
		mons = append(mons, m)
		s.Add(r, m)
	}
	for i, m := range mons {
		if i%2 == 0 {
			r.at(m).flagged = true
		}
	}
	var visited int
	s.ForEach(r, func(index.Handle) { visited++ })
	if visited != 5 {
		t.Fatalf("visited %d, want 5", visited)
	}
	if s.Len() != 5 {
		t.Fatalf("len after compaction = %d", s.Len())
	}
	for i, m := range mons {
		if i%2 == 0 && (!r.at(m).collected || r.at(m).refs != 0) {
			t.Fatal("flagged members must be released")
		}
		if i%2 == 1 && r.at(m).refs != 1 {
			t.Fatal("live members must stay retained")
		}
	}
}

// TestTreeLookup: Figure 6's tree over two parameters, as the θ-table
// column it became — a two-object key tuple reaches its leaf, distinct
// tuples reach distinct leaves, and the death of either object breaks the
// path and notifies the monitors below.
func TestTreeLookup(t *testing.T) {
	h := heap.New()
	r := &fakeStore{}
	kt := newKeyTable()
	R := param.SetOf(0, 1, 2)
	c1, i1, i2 := h.Alloc("c1"), h.Alloc("i1"), h.Alloc("i2")
	inst1 := param.Empty().Bind(0, c1).Bind(1, i1)
	inst2 := param.Empty().Bind(0, c1).Bind(1, i2)

	if kt.get(inst1, R) != nil {
		t.Fatal("lookup before insert must be nil")
	}
	mon := r.alloc()
	s1 := kt.put(inst1, R)
	s1.Add(r, mon)
	s2 := kt.put(inst2, R)
	s2.Add(r, r.alloc())
	if s1 == s2 {
		t.Fatal("distinct tuples must get distinct leaves")
	}
	if kt.put(inst1, R) != s1 {
		t.Fatal("put must be stable")
	}
	if kt.get(inst1, R) != s1 || kt.get(inst2, R) != s2 {
		t.Fatal("lookup after insert")
	}
	h.Free(c1)
	kt.sweep(r)
	if kt.get(inst1, R) != nil || kt.get(inst2, R) != nil {
		t.Fatal("a dead object of the key tuple must break the path")
	}
	if r.at(mon).notified == 0 {
		t.Fatal("monitor under the dead key must be notified")
	}
}

// TestSetCompactionAllFlagged: when every member is flagged, one iteration
// releases everything and visits nothing.
func TestSetCompactionAllFlagged(t *testing.T) {
	r := &fakeStore{}
	s := index.NewSet()
	var mons []index.Handle
	for i := 0; i < 8; i++ {
		m := r.allocFlagged()
		mons = append(mons, m)
		s.Add(r, m)
	}
	visited := 0
	s.ForEach(r, func(index.Handle) { visited++ })
	if visited != 0 {
		t.Fatalf("visited %d flagged members", visited)
	}
	if s.Len() != 0 {
		t.Fatalf("len = %d after all-flagged compaction", s.Len())
	}
	for i, m := range mons {
		if !r.at(m).collected || r.at(m).refs != 0 {
			t.Fatalf("member %d not released", i)
		}
	}
}

// TestAppendLiveMatchesForEach: AppendLive is the closure-free ForEach —
// same compaction, same survivors, appended to the caller's buffer.
func TestAppendLiveMatchesForEach(t *testing.T) {
	r := &fakeStore{}
	mk := func() *index.Set {
		s := index.NewSet()
		for i := 0; i < 10; i++ {
			var m index.Handle
			if i%3 == 0 {
				m = r.allocFlagged()
			} else {
				m = r.alloc()
			}
			s.Add(r, m)
		}
		return s
	}
	s1 := mk()
	s2 := mk()
	var viaForEach []index.Handle
	s1.ForEach(r, func(h index.Handle) { viaForEach = append(viaForEach, h) })
	buf := make([]index.Handle, 0, 4)
	buf = s2.AppendLive(r, buf)
	if len(buf) != len(viaForEach) {
		t.Fatalf("AppendLive returned %d members, ForEach visited %d", len(buf), len(viaForEach))
	}
	if s1.Len() != s2.Len() {
		t.Fatalf("post-compaction lengths diverge: %d vs %d", s1.Len(), s2.Len())
	}
	// Appending must extend, not overwrite.
	buf2 := s2.AppendLive(r, buf)
	if len(buf2) != 2*len(buf) {
		t.Fatalf("AppendLive did not append: %d, want %d", len(buf2), 2*len(buf))
	}
}
