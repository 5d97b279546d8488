package heap_test

import (
	"testing"

	"rvgo/internal/heap"
)

func TestSimHeapLifecycle(t *testing.T) {
	h := heap.New()
	a := h.Alloc("a")
	b := h.Alloc("b")
	if a.ID() == b.ID() || a.ID() == 0 {
		t.Fatal("ids must be distinct and nonzero")
	}
	if !a.Alive() || !b.Alive() {
		t.Fatal("fresh objects must be alive")
	}
	if live, allocs, frees := h.Stats(); live != 2 || allocs != 2 || frees != 0 {
		t.Fatalf("stats = %d %d %d", live, allocs, frees)
	}
	h.Free(a)
	if a.Alive() {
		t.Fatal("freed object must be dead")
	}
	h.Free(a) // double free is a no-op
	if live, _, frees := h.Stats(); live != 1 || frees != 1 {
		t.Fatalf("after double free: live=%d frees=%d", live, frees)
	}
	if a.Label() != "a" {
		t.Fatalf("label = %q", a.Label())
	}
	if h.Alloc("").Label() == "" {
		t.Fatal("unnamed objects get a synthetic label")
	}
}
