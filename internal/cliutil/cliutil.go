// Package cliutil holds the flag-parsing helpers shared by the
// command-line tools (cmd/rvmon, cmd/rvbench, cmd/rvserve, cmd/rvload,
// cmd/rvquery), so every tool reads -gc, -shards, -remote and -nodes the
// same way and asks the façade for the same options, plus the
// retroactive-query core (RunRetroQuery) behind cmd/rvquery.
package cliutil

import (
	"fmt"
	"strings"

	"rvgo"
	"rvgo/internal/dacapo"
	"rvgo/internal/monitor"
	"rvgo/internal/props"
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

// BackendOptions maps a tool's backend flags to façade options, each flag
// to its own option: -nodes to WithCluster, -remote to WithRemote, and
// -shards to WithShards — sizing the sharded runtime locally when > 1, and
// the session's server-side backend remotely when > 0. With -shards 0 (the
// default) the backend is the sequential engine locally and the server's
// configured default remotely. Combinations that mean nothing (-nodes with
// -remote, or with -shards > 1) are refused by rvgo.New, like any other
// illegal configuration.
func BackendOptions(shards int, remote string, nodes []string) ([]rvgo.Option, error) {
	if shards < 0 {
		return nil, fmt.Errorf("-shards must be >= 0, got %d (0 = sequential engine locally, the server's default remotely)", shards)
	}
	var opts []rvgo.Option
	if len(nodes) > 0 {
		opts = append(opts, rvgo.WithCluster(nodes...))
	}
	if remote != "" {
		opts = append(opts, rvgo.WithRemote(remote))
	}
	if shards > 1 || remote != "" && shards > 0 {
		opts = append(opts, rvgo.WithShards(shards))
	}
	return opts, nil
}
