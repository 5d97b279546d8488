package monitor_test

import (
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
)

var coenable = []conformance.Mode{{GC: monitor.GCCoenable}}

// TestEngineConformance runs the backend-independent Runtime suite on the
// sequential engine.
func TestEngineConformance(t *testing.T) {
	conformance.RunEmitNamed(t, conformance.Engine, coenable[0])
}

// TestEngineFreeConformance holds the sequential engine's death
// positioning (each object killed at its Free, or after the last step) to
// the reference.
func TestEngineFreeConformance(t *testing.T) {
	for _, s := range conformance.FreeStreams(t) {
		t.Run(s.Name, func(t *testing.T) {
			conformance.Diff(t, s, []conformance.Backend{conformance.Engine}, coenable)
		})
	}
}

// TestEngineArenaOracle replays the avrora run under every GC policy on a
// fresh engine against a reference engine run of the same stream — the
// arena-store engine must be observationally identical to itself across
// independent runs (determinism of the slab/handle store) before the
// cross-backend cells mean anything.
func TestEngineArenaOracle(t *testing.T) {
	conformance.Diff(t, conformance.Live(t, "avrora", 0.05, "UnsafeIter"),
		[]conformance.Backend{conformance.Engine}, conformance.GCModes())
}

// TestEngineAvoidanceOracle replays the avrora run under every GC policy ×
// avoidance mode against the audited engine (bit-identical in audit mode;
// verdict-identical with the Created + Avoided identity in enforce mode).
func TestEngineAvoidanceOracle(t *testing.T) {
	conformance.Diff(t, conformance.Live(t, "avrora", 0.05, "UnsafeIter"),
		[]conformance.Backend{conformance.Engine}, conformance.AvoidModes())
}

// TestEngineAvoidanceEnforcement proves the guard-firing enforcement
// paths — full-strategy static guards and profile-guided guards — on the
// sequential engine, the only backend where those configurations exist.
func TestEngineAvoidanceEnforcement(t *testing.T) {
	conformance.RunAvoidanceEnforcement(t)
}
