// Package cliutil holds the flag-parsing and backend-construction helpers
// shared by the command-line tools (cmd/rvmon, cmd/rvbench, cmd/rvserve,
// cmd/rvload, cmd/rvquery), so every tool validates -backend, -shards and
// -gc the same way and builds the same façade monitor for the same flags,
// plus the retroactive-query core (RunRetroQuery) behind cmd/rvquery.
package cliutil

import (
	"fmt"
	"strings"

	"rvgo"
	"rvgo/internal/dacapo"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
	"rvgo/spec"
)

// ParseGC maps the -gc flag values to monitor GC policies.
func ParseGC(s string) (monitor.GCPolicy, error) {
	switch s {
	case "coenable":
		return monitor.GCCoenable, nil
	case "alldead":
		return monitor.GCAllDead, nil
	case "none":
		return monitor.GCNone, nil
	}
	return 0, fmt.Errorf("unknown -gc %q (want coenable, alldead or none)", s)
}

// ParseAvoid maps a tool's creation-guard flag to an avoidance mode,
// sharing monitor.ParseAvoidMode's vocabulary (off, audit, enforce).
func ParseAvoid(s string) (monitor.AvoidMode, error) {
	return monitor.ParseAvoidMode(s)
}

// ValidateShards rejects shard counts no backend accepts. 1 selects the
// sequential engine; >1 the sharded runtime.
func ValidateShards(n int) error {
	if n < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d (1 = sequential engine, >1 = sharded runtime)", n)
	}
	return nil
}

// ValidateProp rejects property names outside the built-in library,
// listing the valid ones.
func ValidateProp(name string) error {
	if _, err := props.Build(name); err != nil {
		return fmt.Errorf("%v (have: %s)", err, strings.Join(props.Names(), ", "))
	}
	return nil
}

// ValidateBench rejects unknown DaCapo benchmark profiles, listing the
// valid ones.
func ValidateBench(name string) error {
	if _, ok := dacapo.Get(name); !ok {
		return fmt.Errorf("unknown benchmark %q (have: %s)", name, strings.Join(dacapo.Benchmarks(), ", "))
	}
	return nil
}

// Backend is the monitoring backend a tool's -backend flag selects.
type Backend int

const (
	// BackendSeq is the in-process sequential engine.
	BackendSeq Backend = iota
	// BackendShard is the in-process sharded concurrent runtime.
	BackendShard
	// BackendRemote is a session against an rvserve monitoring server.
	BackendRemote
	// BackendCluster is one logical session spread across a cluster of
	// rvserve nodes, with slices placed by pivot hash.
	BackendCluster
)

func (b Backend) String() string {
	switch b {
	case BackendSeq:
		return "seq"
	case BackendShard:
		return "shard"
	case BackendRemote:
		return "remote"
	case BackendCluster:
		return "cluster"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// SplitNodes splits a comma-separated -nodes list into addresses,
// trimming whitespace and dropping empty entries, so "a:1, b:2," and
// "a:1,b:2" parse the same.
func SplitNodes(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseBackend resolves the unified -backend flag against its modifier
// flags: -shards sizes the sharded backend (or a remote session's
// server-side backend), -remote addresses the monitoring server, -nodes
// lists a cluster's node addresses. The empty name infers the backend
// from the modifiers, keeping the historic flag spellings working:
// -nodes selects cluster, -remote selects remote, -shards N>1 selects
// shard, otherwise seq. An explicit name must agree with its modifiers —
// a -backend seq run with -shards 4, a -backend remote run without
// -remote, or a -backend cluster run with -shards 4, is rejected rather
// than silently reinterpreted.
func ParseBackend(name string, shards int, remote string, nodes []string) (Backend, error) {
	if err := ValidateShards(shards); err != nil {
		return 0, err
	}
	if name == "" {
		switch {
		case len(nodes) > 0 && remote != "":
			return 0, fmt.Errorf("-nodes selects the cluster backend and -remote the single-server one; set -backend to disambiguate")
		case len(nodes) > 0:
			name = "cluster"
		case remote != "":
			name = "remote"
		case shards > 1:
			name = "shard"
		default:
			name = "seq"
		}
	}
	switch name {
	case "seq":
		if shards > 1 {
			return 0, fmt.Errorf("-backend seq is the sequential engine; it cannot take -shards %d (use -backend shard)", shards)
		}
		if remote != "" {
			return 0, fmt.Errorf("-backend seq is in-process; it cannot take -remote %q (use -backend remote)", remote)
		}
		if len(nodes) > 0 {
			return 0, fmt.Errorf("-backend seq is in-process; it cannot take -nodes (use -backend cluster)")
		}
		return BackendSeq, nil
	case "shard":
		if shards < 2 {
			return 0, fmt.Errorf("-backend shard needs -shards >= 2, got %d", shards)
		}
		if remote != "" {
			return 0, fmt.Errorf("-backend shard is in-process; it cannot take -remote %q (use -backend remote)", remote)
		}
		if len(nodes) > 0 {
			return 0, fmt.Errorf("-backend shard is in-process; it cannot take -nodes (use -backend cluster)")
		}
		return BackendShard, nil
	case "remote":
		if remote == "" {
			return 0, fmt.Errorf("-backend remote needs -remote with the rvserve address")
		}
		if len(nodes) > 0 {
			return 0, fmt.Errorf("-backend remote is a single-server session; it cannot take -nodes (use -backend cluster)")
		}
		return BackendRemote, nil
	case "cluster":
		if len(nodes) == 0 {
			return 0, fmt.Errorf("-backend cluster needs -nodes with the rvserve node addresses")
		}
		if remote != "" {
			return 0, fmt.Errorf("-backend cluster addresses its nodes with -nodes; it cannot take -remote %q", remote)
		}
		if shards > 1 {
			return 0, fmt.Errorf("-backend cluster shards by pivot across nodes; it cannot take -shards %d (per-node sessions are sequential)", shards)
		}
		return BackendCluster, nil
	}
	return 0, fmt.Errorf("unknown -backend %q (want seq, shard, remote or cluster)", name)
}

// NewMonitor builds the façade monitor a tool's flags select. The shards
// modifier sizes the sharded backend, or — for a remote backend — the
// per-session backend on the server; the nodes modifier lists a cluster
// backend's rvserve addresses.
func NewMonitor(s *spec.Spec, backend Backend, shards int, remote string, nodes []string, extra ...rvgo.Option) (*rvgo.Monitor, error) {
	opts := extra
	switch backend {
	case BackendShard:
		opts = append(opts, rvgo.WithShards(shards))
	case BackendRemote:
		opts = append(opts, rvgo.WithRemote(remote), rvgo.WithShards(shards))
	case BackendCluster:
		opts = append(opts, rvgo.WithCluster(nodes...))
	}
	return rvgo.New(s, opts...)
}
