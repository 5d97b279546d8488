package monitor

import (
	"reflect"
	"testing"
	"unsafe"

	"rvgo/internal/heap"
	"rvgo/internal/index"
	"rvgo/internal/param"
)

// TestThetaSlotLayout: a θ-record binds object handles, so the θ-table's
// slot holds no pointer — its slabs are noscan, invisible to the host
// collector — and stays within 80 bytes (176 while it held a
// param.Instance of eight heap.Ref interfaces).
func TestThetaSlotLayout(t *testing.T) {
	typ := reflect.TypeFor[param.Slot[theta]]()
	if path, ok := pointerIn(typ, typ.Name()); ok {
		t.Errorf("θ slot holds a pointer at %s", path)
	}
	if size := unsafe.Sizeof(param.Slot[theta]{}); size > 80 {
		t.Errorf("θ slot is %d bytes, want at most 80", size)
	}
}

// TestLeafLayout: a leaf record locates its member vector in the block
// heap by offset and length, so the leaf pool's slab holds no pointer and
// a record is at most 24 bytes (40 while it held a slice header).
func TestLeafLayout(t *testing.T) {
	typ := reflect.TypeFor[index.Leaf]()
	if path, ok := pointerIn(typ, typ.Name()); ok {
		t.Errorf("leaf record holds a pointer at %s", path)
	}
	if size := unsafe.Sizeof(index.Leaf{}); size > 24 {
		t.Errorf("leaf record is %d bytes, want at most 24", size)
	}
}

// pointerIn reports the path of the first pointer-carrying component of
// typ, if any.
func pointerIn(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
		reflect.Map, reflect.Chan, reflect.Func, reflect.String:
		return path, true
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// TestObjectPoison: with the checks armed, a freed object record is
// poisoned, and a write through a stale view of it fails when its handle
// is issued again; an untouched record passes.
func TestObjectPoison(t *testing.T) {
	for _, scribble := range []bool{false, true} {
		h := heap.New()
		objs := newObjects(nil, true)
		a := h.Alloc("a")
		ha := objs.handle(a)
		h.Free(a)
		objs.observe()
		objs.drain(nil)
		if objs.idx.Len() != 0 || objs.recs[ha] != pooledObject {
			t.Fatalf("a dead unpinned record was not dropped and poisoned: %+v", objs.recs[ha])
		}
		if scribble {
			objs.recs[ha].doms |= 1 // a stale fresh-object guard write
		}
		func() {
			defer func() {
				if tripped := recover() != nil; tripped != scribble {
					t.Fatalf("scribble %v: verify tripped = %v", scribble, tripped)
				}
			}()
			b := h.Alloc("b")
			if hb := objs.handle(b); hb != ha || objs.recs[hb] != (object{ref: b, id: b.ID()}) {
				t.Fatalf("reissued record %d = %+v, want a fresh one for b at %d", hb, objs.recs[hb], ha)
			}
		}()
	}
}

// TestObjectProbeLengths: 10⁵ IDs spaced 2³², 2²⁰ and 4096 apart — IDs
// whose low bits agree, as a client choosing its own IDs may send — sit
// within a bounded probe of their home slots in every seeded table. The
// bounds are twice the worst maximum and mean measured over 48 tables per
// shape.
func TestObjectProbeLengths(t *testing.T) {
	const keys, tables = 100_000, 4
	const maxBound, meanBound = 56, 2.63
	for _, shift := range []uint{32, 20, 12} {
		for range tables {
			o := newObjects(nil, false)
			for k := range uint64(keys) {
				o.handleHeld(nil, k<<shift)
			}
			if err := checkObjects(&o); err != nil {
				t.Fatalf("IDs k·2^%d: %v", shift, err)
			}
			p, _ := o.idx.Check(o.rehash)
			t.Logf("IDs k·2^%d: longest probe %d, mean %.3f", shift, p.Max, p.Mean)
			if p.Max > maxBound || p.Mean > meanBound {
				t.Errorf("IDs k·2^%d: longest probe %d, mean %.3f; want at most %d and %.2f", shift, p.Max, p.Mean, maxBound, meanBound)
			}
		}
	}
}
