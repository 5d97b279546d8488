// Package rvgo is a from-scratch Go reproduction of "Garbage Collection
// for Monitoring Parametric Properties" (Jin, Meredith, Griffith, Roşu —
// PLDI 2011): the RV runtime-verification system, whose contribution is a
// formalism-independent, coenable-set-driven garbage collector for
// parametric monitor instances, paired with lazily collected weak-keyed
// indexing trees.
//
// This package is the system's one public surface. Build a property with
// rvgo/spec — fluently, from .rv source, or from the built-in library of
// the paper's evaluation — and run it with New:
//
//	property, err := spec.Builtin("UnsafeIter")
//	m, err := rvgo.New(property, rvgo.WithVerdictHandler(report))
//	create := m.MustEvent("create")
//	...
//	create.Emit(coll, iter) // the allocation-free hot path
//
// The options select among three interchangeable backends behind the same
// Monitor type: the sequential engine of the paper (the default); a
// sharded concurrent runtime (WithShards) that partitions the monitor
// store across single-threaded engine workers by a pivot parameter
// derived from the enable-set analysis, with batched, backpressured event
// ingestion; and a remote session (WithRemote) against the multi-tenant
// monitoring server (NewServer, cmd/rvserve), speaking a compact binary
// protocol in which object death is an explicit trace event — the network
// replacement for the weak references the in-process engines consume.
// One differential harness (internal/conformance) holds all three to the
// sequential engine's observable behavior, so backend choice is a
// deployment decision, not a semantic one.
//
// Three ingestion modes feed a Monitor: recorded traces (cmd/rvmon, the
// DaCapo substrate driven by cmd/rvbench), network sessions (WithRemote,
// WithCluster), and — closest to the paper's title — live Go objects
// through the rv frontend: rv.Attach emits events over a program's own
// heap objects, a weak-keyed registry (Registry) assigns their monitoring
// identities, and the real Go garbage collector's cleanups become the
// stream-positioned death signals that drive coenable-set monitor
// reclamation.
//
// The implementation lives under internal/ (one package per subsystem —
// see DESIGN.md for the inventory) and is sealed off: rvgo and rvgo/spec
// are the only packages that import it, a boundary the repository
// enforces in CI (boundary_test.go) together with a golden file of this
// package's exported API (apisurface_test.go, api/). Five command-line
// tools ship with the library:
//
//	cmd/rvmon       monitor a parametric event trace against an .rv spec
//	cmd/rvcoenable  print the Section 3 static analyses for a property
//	cmd/rvbench     regenerate the paper's Figure 9/10 tables
//	cmd/rvserve     serve monitoring sessions over TCP
//	cmd/rvload      load-test a monitoring server with concurrent sessions
//
// and runnable examples under examples/. The benchmarks in bench_test.go
// regenerate each evaluation artifact as a testing.B benchmark.
package rvgo
