package props_test

import (
	"fmt"
	"testing"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
)

// run builds the property, dispatches the script and returns the verdict
// count. Script entries are event name + object labels; objects are
// allocated on first use and freed by the pseudo-event "free".
func run(t *testing.T, prop string, script [][]string) int {
	t.Helper()
	s, err := props.Build(prop)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	eng, err := monitor.New(s, monitor.Options{
		GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
		OnVerdict: func(monitor.Verdict) { verdicts++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := heap.New()
	objs := map[string]*heap.Object{}
	obj := func(name string) *heap.Object {
		if o, ok := objs[name]; ok {
			return o
		}
		o := h.Alloc(name)
		objs[name] = o
		return o
	}
	for _, step := range script {
		if step[0] == "free" {
			h.Free(obj(step[1]))
			continue
		}
		vals := make([]heap.Ref, 0, len(step)-1)
		for _, name := range step[1:] {
			vals = append(vals, obj(name))
		}
		if err := monitor.EmitNamed(eng, step[0], vals...); err != nil {
			t.Fatalf("%s: %v", step[0], err)
		}
	}
	return verdicts
}

func TestAllPropertiesBuildAndAnalyze(t *testing.T) {
	for _, name := range props.Names() {
		s, err := props.Build(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.Analysis(); err != nil {
			t.Fatalf("%s analysis: %v", name, err)
		}
	}
	if _, err := props.Build("NoSuch"); err == nil {
		t.Fatal("unknown property must error")
	}
}

func TestHasNextViolation(t *testing.T) {
	if got := run(t, "HasNext", [][]string{
		{"hasnexttrue", "i1"}, {"next", "i1"}, {"next", "i1"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
	if got := run(t, "HasNext", [][]string{
		{"hasnexttrue", "i1"}, {"next", "i1"},
		{"hasnexttrue", "i1"}, {"next", "i1"}, {"hasnextfalse", "i1"},
	}); got != 0 {
		t.Fatalf("clean walk: verdicts = %d", got)
	}
}

func TestHasNextLTLAgreesWithFSM(t *testing.T) {
	script := [][]string{
		{"hasnexttrue", "i1"}, {"next", "i1"},
		{"hasnextfalse", "i1"}, {"next", "i1"}, // violation
	}
	if fsmV, ltlV := run(t, "HasNext", script), run(t, "HasNextLTL", script); fsmV != 1 || ltlV != 1 {
		t.Fatalf("fsm=%d ltl=%d, want 1/1", fsmV, ltlV)
	}
}

func TestUnsafeIterMatch(t *testing.T) {
	if got := run(t, "UnsafeIter", [][]string{
		{"create", "c", "i"}, {"next", "i"}, {"update", "c"}, {"next", "i"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
	// Update before create is fine; no use after update means no match.
	if got := run(t, "UnsafeIter", [][]string{
		{"update", "c"}, {"create", "c", "i"}, {"next", "i"}, {"update", "c"},
	}); got != 0 {
		t.Fatalf("verdicts = %d", got)
	}
}

func TestUnsafeMapIterMatch(t *testing.T) {
	if got := run(t, "UnsafeMapIter", [][]string{
		{"createColl", "m", "c"}, {"createIter", "c", "i"},
		{"useIter", "i"}, {"updateMap", "m"}, {"useIter", "i"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
	// Iterating a different map's view is unaffected.
	if got := run(t, "UnsafeMapIter", [][]string{
		{"createColl", "m1", "c1"}, {"createIter", "c1", "i1"},
		{"updateMap", "m2"}, {"useIter", "i1"},
	}); got != 0 {
		t.Fatalf("cross-map verdicts = %d", got)
	}
}

func TestUnsafeSyncCollMatch(t *testing.T) {
	if got := run(t, "UnsafeSyncColl", [][]string{
		{"sync", "c"}, {"asyncCreateIter", "c", "i"},
	}); got != 1 {
		t.Fatalf("async create: verdicts = %d", got)
	}
	if got := run(t, "UnsafeSyncColl", [][]string{
		{"sync", "c"}, {"syncCreateIter", "c", "i"},
		{"syncAccess", "i"}, {"asyncAccess", "i"},
	}); got != 1 {
		t.Fatalf("async access: verdicts = %d", got)
	}
	if got := run(t, "UnsafeSyncColl", [][]string{
		{"sync", "c"}, {"syncCreateIter", "c", "i"}, {"syncAccess", "i"},
	}); got != 0 {
		t.Fatalf("clean sync use: verdicts = %d", got)
	}
}

func TestUnsafeSyncMapMatch(t *testing.T) {
	if got := run(t, "UnsafeSyncMap", [][]string{
		{"sync", "m"}, {"createSet", "m", "c"},
		{"syncCreateIter", "c", "i"}, {"asyncAccess", "i"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
}

func TestSafeLockFail(t *testing.T) {
	if got := run(t, "SafeLock", [][]string{
		{"begin", "t"}, {"acquire", "l", "t"}, {"release", "l", "t"},
		{"release", "l", "t"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
	if got := run(t, "SafeLock", [][]string{
		{"begin", "t"}, {"acquire", "l", "t"}, {"release", "l", "t"}, {"end", "t"},
	}); got != 0 {
		t.Fatalf("balanced trace: verdicts = %d", got)
	}
}

func TestHashSetViolation(t *testing.T) {
	if got := run(t, "HashSet", [][]string{
		{"add", "s", "o"}, {"mutate", "o"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
	if got := run(t, "HashSet", [][]string{
		{"add", "s", "o"}, {"remove", "s", "o"}, {"mutate", "o"},
	}); got != 0 {
		t.Fatalf("mutate after remove: verdicts = %d", got)
	}
}

func TestSafeEnum(t *testing.T) {
	if got := run(t, "SafeEnum", [][]string{
		{"create", "v", "e"}, {"modify", "v"}, {"nextElem", "e"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
}

func TestSafeFile(t *testing.T) {
	if got := run(t, "SafeFile", [][]string{
		{"open", "f"}, {"read", "f"}, {"close", "f"}, {"read", "f"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
}

func TestSafeFileWriter(t *testing.T) {
	if got := run(t, "SafeFileWriter", [][]string{
		{"write", "w"}, {"close", "w"}, {"write", "w"},
	}); got != 1 {
		t.Fatalf("verdicts = %d", got)
	}
	if got := run(t, "SafeFileWriter", [][]string{
		{"write", "w"}, {"write", "w"}, {"close", "w"},
	}); got != 0 {
		t.Fatalf("clean writer: verdicts = %d", got)
	}
}

// TestGCKeepsVerdictsForEveryProperty replays each property's violating
// script with interleaved frees of unrelated objects: coenable GC must not
// suppress the verdicts.
func TestGCKeepsVerdictsForEveryProperty(t *testing.T) {
	scripts := map[string][][]string{
		"HasNext":    {{"hasnexttrue", "i1"}, {"next", "i1"}, {"next", "i1"}},
		"UnsafeIter": {{"create", "c", "i"}, {"update", "c"}, {"next", "i"}},
		"UnsafeMapIter": {
			{"createColl", "m", "c"}, {"createIter", "c", "i"},
			{"updateMap", "m"}, {"useIter", "i"},
		},
		"HashSet": {{"add", "s", "o"}, {"mutate", "o"}},
	}
	for prop, script := range scripts {
		// Interleave garbage objects that die immediately.
		var full [][]string
		for k, step := range script {
			full = append(full, step)
			junk := fmt.Sprintf("junk%d", k)
			full = append(full, []string{"free", junk})
		}
		if got := run(t, prop, full); got != 1 {
			t.Errorf("%s with junk frees: verdicts = %d", prop, got)
		}
	}
}
