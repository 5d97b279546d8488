package arena

import (
	"strings"
	"testing"
)

type rec struct {
	a, b uint32
}

func TestAllocFreeReuse(t *testing.T) {
	var p Pool[rec]
	h1, r1 := p.Alloc()
	h2, r2 := p.Alloc()
	if h1 == h2 {
		t.Fatal("distinct allocations share a handle")
	}
	if h1.IsNil() || h2.IsNil() {
		t.Fatal("Alloc returned Nil")
	}
	r1.a, r2.a = 1, 2
	if p.At(h1).a != 1 || p.At(h2).a != 2 {
		t.Fatal("records alias or lost writes")
	}
	if p.Live() != 2 {
		t.Fatalf("Live = %d, want 2", p.Live())
	}

	p.Free(h1)
	if p.Live() != 1 {
		t.Fatalf("Live = %d after Free, want 1", p.Live())
	}
	h3, r3 := p.Alloc()
	if h3.Index() != h1.Index() {
		t.Fatalf("free-list reuse expected: index %d, want %d", h3.Index(), h1.Index())
	}
	if h3 == h1 {
		t.Fatal("recycled slot reissued under the stale generation")
	}
	if r3.a != 0 {
		t.Fatal("recycled record not zeroed")
	}
	if p.Reused() != 1 {
		t.Fatalf("Reused = %d, want 1", p.Reused())
	}
}

func TestStaleHandlePanics(t *testing.T) {
	var p Pool[rec]
	h, _ := p.Alloc()
	p.Free(h)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s on a stale handle did not panic", name)
			}
			if !strings.Contains(r.(string), "stale handle") {
				t.Fatalf("%s panic = %v, want a stale-handle message", name, r)
			}
		}()
		f()
	}
	mustPanic("At", func() { p.At(h) })
	mustPanic("Free", func() { p.Free(h) })
	mustPanic("At(Nil)", func() { p.At(Nil) })

	if _, ok := p.Get(h); ok {
		t.Fatal("Get found a freed handle")
	}
	if p.Alive(h) {
		t.Fatal("freed handle reported alive")
	}

	// ABA: the recycled slot's new handle works, the old one still fails.
	h2, _ := p.Alloc()
	if h2.Index() != h.Index() {
		t.Fatalf("expected slot reuse, got index %d want %d", h2.Index(), h.Index())
	}
	if !p.Alive(h2) || p.Alive(h) {
		t.Fatal("generation tag failed to separate old and new allocation of one slot")
	}
	mustPanic("At after ABA reuse", func() { p.At(h) })
}

func TestGenerationsAdvance(t *testing.T) {
	var p Pool[rec]
	h1, _ := p.Alloc()
	p.Free(h1)
	h2, _ := p.Alloc()
	p.Free(h2)
	h3, _ := p.Alloc()
	if h1 == h2 || h2 == h3 || h1 == h3 {
		t.Fatalf("handle generations repeat: %v %v %v", h1, h2, h3)
	}
	if h1.Index() != h2.Index() || h2.Index() != h3.Index() {
		t.Fatal("LIFO free list should reuse the same slot")
	}
}

func TestSlabGrowth(t *testing.T) {
	var p Pool[rec]
	n := SlabSize*2 + 5
	handles := make([]Handle, 0, n)
	for i := 0; i < n; i++ {
		h, r := p.Alloc()
		r.a = uint32(i)
		handles = append(handles, h)
	}
	st := p.Stats()
	if st.Slabs != 3 || st.Cap != 3*SlabSize || st.Live != n || st.HighWater != n {
		t.Fatalf("stats = %+v", st)
	}
	for i, h := range handles {
		if p.At(h).a != uint32(i) {
			t.Fatalf("record %d corrupted across slab growth", i)
		}
	}
	// Pointers are stable: record addresses taken before growth still hold.
	h0 := handles[0]
	r0 := p.At(h0)
	for i := 0; i < SlabSize; i++ {
		p.Alloc()
	}
	if p.At(h0) != r0 {
		t.Fatal("record pointer moved when the pool grew")
	}
}

func TestStatsOccupancyFragmentation(t *testing.T) {
	var p Pool[rec]
	var hs []Handle
	for i := 0; i < 100; i++ {
		h, _ := p.Alloc()
		hs = append(hs, h)
	}
	for _, h := range hs[:40] {
		p.Free(h)
	}
	st := p.Stats()
	if st.Live != 60 || st.Free != 40 || st.HighWater != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.Occupancy(); got != 60.0/float64(SlabSize) {
		t.Fatalf("Occupancy = %v", got)
	}
	if got := st.Fragmentation(); got != 0.4 {
		t.Fatalf("Fragmentation = %v, want 0.4", got)
	}
	if (Stats{}).Occupancy() != 0 || (Stats{}).Fragmentation() != 0 {
		t.Fatal("empty-pool ratios must be 0")
	}
}

func TestPoisonVerify(t *testing.T) {
	var p Pool[rec]
	poisoned, verified := 0, 0
	p.SetChecks(
		func(r *rec) { r.a = 0xDEAD; poisoned++ },
		func(r *rec) {
			verified++
			if r.a != 0xDEAD {
				panic("poison not intact")
			}
		},
	)
	h, _ := p.Alloc()
	p.Free(h)
	if poisoned != 1 {
		t.Fatalf("poison ran %d times", poisoned)
	}
	_, r := p.Alloc()
	if verified != 1 {
		t.Fatalf("verify ran %d times", verified)
	}
	if r.a != 0 {
		t.Fatal("reused record not zeroed after verify")
	}

	// A mutation while pooled must trip verify.
	h2, _ := p.Alloc()
	p.Free(h2)
	idx := h2.Index()
	p.slabs[idx>>slabShift][idx&slabMask].a = 7 // simulate a stray write
	defer func() {
		if recover() == nil {
			t.Fatal("verify did not trip on a mutated pooled record")
		}
	}()
	p.Alloc() // LIFO: pops the mutated slot
}

func TestReset(t *testing.T) {
	var p Pool[rec]
	var hs []Handle
	for i := 0; i < SlabSize+10; i++ {
		h, _ := p.Alloc()
		hs = append(hs, h)
	}
	p.Free(hs[0])
	p.Reset()
	st := p.Stats()
	if st.Slabs != 0 || st.Live != 0 || st.Free != 0 || st.Cap != 0 {
		t.Fatalf("stats after Reset = %+v", st)
	}
	for _, h := range hs[1:] {
		if p.Alive(h) {
			t.Fatal("handle survived Reset")
		}
	}
	// The pool is reusable after Reset.
	h, r := p.Alloc()
	r.a = 9
	if p.At(h).a != 9 {
		t.Fatal("pool unusable after Reset")
	}
}

func TestHandleString(t *testing.T) {
	if Nil.String() != "arena.Nil" {
		t.Fatalf("Nil.String() = %q", Nil.String())
	}
	var p Pool[rec]
	h, _ := p.Alloc()
	if s := h.String(); !strings.Contains(s, "0@g1") {
		t.Fatalf("String() = %q, want slot 0 generation 1", s)
	}
}

// TestAllWalksLiveSlotsInIndexOrder: All visits exactly the live records,
// in slot-index order across slabs, hands out handles that resolve to the
// record it yields, and tolerates the body freeing records mid-walk.
func TestAllWalksLiveSlotsInIndexOrder(t *testing.T) {
	var p Pool[rec]
	const n = SlabSize + 10
	hs := make([]Handle, n)
	for i := range hs {
		hs[i], _ = p.Alloc()
		p.At(hs[i]).a = uint32(i)
	}
	var want []uint32
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			p.Free(hs[i])
		} else if i != 2 {
			want = append(want, uint32(i))
		}
	}
	var got []uint32
	for h, r := range p.All() {
		if p.At(h) != r {
			t.Fatalf("All yielded %v with a record it does not resolve to", h)
		}
		got = append(got, r.a)
		if r.a == 1 {
			p.Free(hs[2]) // freed ahead of the walk: must be skipped
		}
		p.Free(h)
	}
	if len(got) != len(want) {
		t.Fatalf("All visited %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("visit %d = record %d, want %d", i, got[i], want[i])
		}
	}
	for range p.All() {
		t.Fatal("All yielded a record from an emptied pool")
	}
}
