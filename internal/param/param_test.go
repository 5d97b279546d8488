package param_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rvgo/internal/heap"
	"rvgo/internal/param"
)

var testHeap = heap.New()

// pool is a fixed set of objects so random instances share values.
var pool = func() []*heap.Object {
	out := make([]*heap.Object, 6)
	for i := range out {
		out[i] = testHeap.Alloc("")
	}
	return out
}()

// randInstance builds a random instance over 4 parameters and 6 values.
type randInstance struct{ inst param.Instance }

func (randInstance) Generate(r *rand.Rand, _ int) reflect.Value {
	inst := param.Empty()
	for i := 0; i < 4; i++ {
		if r.Intn(2) == 1 {
			inst = inst.Bind(i, pool[r.Intn(len(pool))])
		}
	}
	return reflect.ValueOf(randInstance{inst})
}

func TestSetBasics(t *testing.T) {
	s := param.SetOf(0, 2, 5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) || s.Has(1) {
		t.Fatalf("membership broken: %v", s)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if got := s.Members(); !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Fatalf("members = %v", got)
	}
	if !param.SetOf(0).SubsetOf(s) || param.SetOf(1).SubsetOf(s) {
		t.Fatal("subset broken")
	}
	if s.Union(param.SetOf(1)) != param.SetOf(0, 1, 2, 5) {
		t.Fatal("union broken")
	}
	if s.Inter(param.SetOf(2, 3)) != param.SetOf(2) {
		t.Fatal("inter broken")
	}
	if s.Diff(param.SetOf(2)) != param.SetOf(0, 5) {
		t.Fatal("diff broken")
	}
	if s.Format([]string{"a", "b", "c"}) != "{a, c, p5}" {
		t.Fatalf("format = %q", s.Format([]string{"a", "b", "c"}))
	}
}

// TestLubIsLeastUpperBound: θ ⊔ θ' is an upper bound of both and is below
// any other upper bound (Definition 5).
func TestLubIsLeastUpperBound(t *testing.T) {
	f := func(a, b, c randInstance) bool {
		lub, ok := a.inst.Lub(b.inst)
		if !ok {
			return !a.inst.Compatible(b.inst)
		}
		if !a.inst.LessInformative(lub) || !b.inst.LessInformative(lub) {
			return false
		}
		// Any other upper bound of a and b is above the lub.
		if a.inst.LessInformative(c.inst) && b.inst.LessInformative(c.inst) {
			return lub.LessInformative(c.inst)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCompatibilitySymmetric: compatibility is symmetric and reflexive.
func TestCompatibilitySymmetric(t *testing.T) {
	f := func(a, b randInstance) bool {
		if !a.inst.Compatible(a.inst) {
			return false
		}
		return a.inst.Compatible(b.inst) == b.inst.Compatible(a.inst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLessInformativePartialOrder: ⊑ is reflexive, antisymmetric (via
// keys) and transitive.
func TestLessInformativePartialOrder(t *testing.T) {
	f := func(a, b, c randInstance) bool {
		if !a.inst.LessInformative(a.inst) {
			return false
		}
		if a.inst.LessInformative(b.inst) && b.inst.LessInformative(a.inst) &&
			a.inst.Key() != b.inst.Key() {
			return false
		}
		if a.inst.LessInformative(b.inst) && b.inst.LessInformative(c.inst) &&
			!a.inst.LessInformative(c.inst) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRestrictProperties: θ|S ⊑ θ, dom(θ|S) = dom(θ) ∩ S.
func TestRestrictProperties(t *testing.T) {
	f := func(a randInstance, sBits uint8) bool {
		s := param.Set(sBits) & param.SetOf(0, 1, 2, 3)
		r := a.inst.Restrict(s)
		return r.LessInformative(a.inst) && r.Mask() == a.inst.Mask().Inter(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyIdentity: keys are equal iff instances bind the same values.
func TestKeyIdentity(t *testing.T) {
	f := func(a, b randInstance) bool {
		same := a.inst.Mask() == b.inst.Mask()
		if same {
			for _, i := range a.inst.Mask().Members() {
				if a.inst.Value(i).ID() != b.inst.Value(i).ID() {
					same = false
					break
				}
			}
		}
		return (a.inst.Key() == b.inst.Key()) == same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBindRules(t *testing.T) {
	a := param.Empty().Bind(1, pool[0])
	if a.Mask() != param.SetOf(1) || a.Value(1).ID() != pool[0].ID() {
		t.Fatal("bind broken")
	}
	if a.Value(0) != nil {
		t.Fatal("unbound value must be nil")
	}
	// Rebinding to the same object is a no-op; to a different one panics.
	_ = a.Bind(1, pool[0])
	defer func() {
		if recover() == nil {
			t.Fatal("rebinding to a different object must panic")
		}
	}()
	_ = a.Bind(1, pool[1])
}

func TestAliveMask(t *testing.T) {
	h := heap.New()
	x, y := h.Alloc("x"), h.Alloc("y")
	inst := param.Empty().Bind(0, x).Bind(2, y)
	if inst.AliveMask() != param.SetOf(0, 2) {
		t.Fatal("both alive expected")
	}
	h.Free(y)
	if inst.AliveMask() != param.SetOf(0) {
		t.Fatal("y should be dead")
	}
}

// TestMapKeepsDomainWithoutAllocating: Map visits exactly dom(θ), hands f
// each binding, and — being on the sharded runtime's per-event path — does
// not allocate, closure included.
func TestMapKeepsDomainWithoutAllocating(t *testing.T) {
	h := heap.New()
	x, y := h.Alloc("x"), h.Alloc("y")
	images := [param.MaxParams]heap.Ref{0: h.Alloc("x'"), 2: h.Alloc("y'")}
	inst := param.Empty().Bind(0, x).Bind(2, y)
	var got param.Instance
	allocs := testing.AllocsPerRun(100, func() {
		got = inst.Map(func(i int, v heap.Ref) heap.Ref {
			if v != inst.Value(i) {
				t.Errorf("f(%d) was handed %v, want %v", i, v, inst.Value(i))
			}
			return images[i]
		})
	})
	if allocs != 0 {
		t.Errorf("Map allocates %.0f times, want 0", allocs)
	}
	if got.Mask() != inst.Mask() || got.Value(0) != images[0] || got.Value(2) != images[2] || got.Value(1) != nil {
		t.Errorf("Map = %v over %v, want the images over the same domain", got, got.Mask())
	}
	if inst.Value(0) != heap.Ref(x) {
		t.Error("Map modified its receiver")
	}
}

func TestFormat(t *testing.T) {
	inst := param.Empty().Bind(0, pool[0]).Bind(1, pool[1])
	got := inst.Format([]string{"c", "i"})
	want := "<c=" + pool[0].Label() + ", i=" + pool[1].Label() + ">"
	if got != want {
		t.Fatalf("format = %q want %q", got, want)
	}
}

// TestKeyFormat: a key renders as an instance of objects labelled rN by
// their IDs, and appends its IDs in ascending parameter order.
func TestKeyFormat(t *testing.T) {
	k := param.Key{Mask: param.SetOf(0, 2)}
	k.IDs[0], k.IDs[2] = 5, 9
	if got, want := k.Format([]string{"m", "c", "i"}), "<m=r5, i=r9>"; got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
	if got, want := k.String(), "<p0=r5, p2=r9>"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := k.AppendIDs([]uint64{1}); !reflect.DeepEqual(got, []uint64{1, 5, 9}) {
		t.Errorf("AppendIDs = %v, want [1 5 9]", got)
	}
	if got := (param.Key{}).Format(nil); got != "<>" {
		t.Errorf("⊥ formats as %q, want <>", got)
	}
}

func TestOfArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	param.Of(param.SetOf(0, 1), pool[0])
}
