// Benchmarks of the façade hot paths: the pre-resolved Emitter (which
// must preserve PR 4's 0 allocs/op on the sequential backend) and
// EmitNamed's name resolution (which, since the Spec.Symbol map, must not
// scale with the alphabet size).
package rvgo_test

import (
	"fmt"
	"testing"

	"rvgo"
	"rvgo/spec"
)

// BenchmarkEmitterEmit measures the façade's per-event hot path on the
// sequential backend: one pre-resolved Emitter dispatching a
// single-parameter event in steady state. The allocs/op column must read
// 0 — the same guarantee the DaCapo adapter's sinks have
// (TestEmitterZeroAlloc gates it in plain `go test`).
func BenchmarkEmitterEmit(b *testing.B) {
	sp, err := spec.Builtin("HasNext")
	if err != nil {
		b.Fatal(err)
	}
	m, err := rvgo.New(sp)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	hnT, next := m.MustEvent("hasnexttrue"), m.MustEvent("next")
	h := rvgo.NewHeap()
	it := h.Alloc("it")
	hnT.Emit(it)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hnT.Emit(it)
		next.Emit(it)
	}
}

// alphabetSpec builds an FSM property with n events e0..e(n-1) forming a
// chain s0 -e0→ s1 -e1→ … → done. A chain keeps the enable-set families
// linear in n (a clique of mutually-preceding events makes the §3 enable
// family enumerate subsets of the alphabet — exponential, and nothing the
// paper's ≤6-event properties ever approach), so only name-resolution
// cost varies with the alphabet size.
func alphabetSpec(b *testing.B, n int) *spec.Spec {
	bld := spec.New(fmt.Sprintf("Alphabet%d", n)).Params("x")
	states := make([]spec.FSMState, n+1)
	for i := 0; i < n; i++ {
		ev := fmt.Sprintf("e%d", i)
		bld.Event(ev, "x")
		to := fmt.Sprintf("s%d", i+1)
		if i == n-1 {
			to = "done"
		}
		states[i] = spec.State(fmt.Sprintf("s%d", i), ev, to)
	}
	states[n] = spec.State("done")
	sp, err := bld.FSM(states...).Goal("done").Build()
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// BenchmarkEmitNamedAlphabet dispatches by name under growing alphabets,
// always using the lexically last event — the worst case for the linear
// scan Spec.Symbol used to be. With the name→symbol map the three
// sub-benchmarks report the same ns/op; under the old scan the 64-event
// case paid ~16× the 4-event case in resolution alone.
func BenchmarkEmitNamedAlphabet(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("alphabet%d", n), func(b *testing.B) {
			sp := alphabetSpec(b, n)
			m, err := rvgo.New(sp)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			h := rvgo.NewHeap()
			x := h.Alloc("x")
			last := fmt.Sprintf("e%d", n-1)
			if err := m.EmitNamed(last, x); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.EmitNamed(last, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
