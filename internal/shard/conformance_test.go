package shard_test

import (
	"testing"

	"rvgo/internal/conformance"
	"rvgo/internal/monitor"
)

var shard4 = []conformance.Backend{shards{n: 4}.backend()}

// TestShardConformance runs the backend-independent Runtime suite on the
// sharded runtime.
func TestShardConformance(t *testing.T) {
	conformance.RunEmitNamed(t, shard4[0], conformance.Mode{GC: monitor.GCCoenable})
}

// TestShardFreeConformance holds the sharded runtime's death positioning
// (each object killed at its Free, or after the last step) to the
// sequential engine.
func TestShardFreeConformance(t *testing.T) {
	for _, s := range conformance.FreeStreams(t) {
		t.Run(s.Name, func(t *testing.T) {
			conformance.Diff(t, s, shard4, []conformance.Mode{{GC: monitor.GCCoenable}})
		})
	}
}

// TestShardArenaOracle replays the avrora run through the 4-shard runtime
// under every GC policy against the sequential engine.
func TestShardArenaOracle(t *testing.T) {
	conformance.Diff(t, conformance.Live(t, "avrora", 0.05, "UnsafeIter"), shard4, conformance.GCModes())
}

// TestShardAvoidanceOracle replays the avrora run through the 4-shard
// runtime under every GC policy × avoidance mode against the audited
// sequential engine.
func TestShardAvoidanceOracle(t *testing.T) {
	conformance.Diff(t, conformance.Live(t, "avrora", 0.05, "UnsafeIter"), shard4, conformance.AvoidModes())
}
