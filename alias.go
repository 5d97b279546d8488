package rvgo

import (
	"rvgo/internal/cluster"
	"rvgo/internal/heap"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
	"rvgo/internal/registry"
	"rvgo/internal/server"
)

// The façade re-exports the identity, counter and verdict types of the
// monitoring runtime as aliases, so user code — and the public rv package
// and the command-line tools, which may not import internal packages
// either — can name Ref, Stats, Verdict, Server or Router at all. An alias
// is the internal type: no wrapping, no copying, no drift.

// Ref is a possibly-weak reference to a parameter object: the identity
// currency of the whole system. A Ref must never keep its referent alive.
type Ref = heap.Ref

// Stats are the monitoring counters of the paper's Figure 10 (events,
// monitors created/flagged/collected, goal verdicts, live and peak-live
// monitors).
type Stats = monitor.Stats

// Verdict is one goal-category report delivered to the verdict handler.
type Verdict = monitor.Verdict

// Category is a verdict category; see the constants in rvgo/spec.
type Category = logic.Category

// Instance is a parameter instance θ: a partial map from the property's
// parameters to objects. Emitter.Emit and EmitNamed build instances for
// you; Dispatch accepts one directly.
type Instance = param.Instance

// BindingOf builds the instance for event sym of the compiled spec,
// binding vals in the event's parameter order — the typed input of
// Monitor.Dispatch.
func BindingOf(m *Monitor, sym int, vals ...Ref) Instance {
	return param.Of(m.rt.Spec().Events[sym].Params, vals...)
}

// GCPolicy selects how monitor instances are reclaimed.
type GCPolicy = monitor.GCPolicy

const (
	// GCNone never reclaims monitors: the pre-GC baseline.
	GCNone = monitor.GCNone
	// GCAllDead reclaims a monitor only when every bound parameter object
	// has died — the JavaMOP condition the paper improves upon.
	GCAllDead = monitor.GCAllDead
	// GCCoenable is the paper's contribution: a monitor is reclaimed as
	// soon as its ALIVENESS formula (from the coenable-set analysis and
	// the last event observed) becomes false. The default.
	GCCoenable = monitor.GCCoenable
)

// AvoidMode selects the creation-avoidance mode (see WithAvoidance).
type AvoidMode = monitor.AvoidMode

const (
	// AvoidOff disables the creation-avoidance guards. The default.
	AvoidOff = monitor.AvoidOff
	// AvoidAudit evaluates the guards and counts would-be-suppressed
	// creations in Stats.Avoided, but still materializes every monitor.
	AvoidAudit = monitor.AvoidAudit
	// AvoidEnforce suppresses guarded creations; per-slice verdicts stay
	// bit-identical to the unguarded engine.
	AvoidEnforce = monitor.AvoidEnforce
)

// CreationProfile accumulates per-creation-site statistics during a run
// (see WithCreationProfile); its Guards method synthesizes a profile-guard
// vector for WithProfileGuards.
type CreationProfile = monitor.CreationProfile

// Heap is the deterministic simulated heap: monitored objects are
// allocated with Alloc and die when the workload calls Free, which is the
// death signal driving monitor GC. Use it for traces and tests; monitor
// real Go objects through package rv instead.
type Heap = heap.Heap

// Object is a simulated heap object; it implements Ref.
type Object = heap.Object

// NewHeap returns an empty simulated heap.
func NewHeap() *Heap { return heap.New() }

// Registry is the weak-keyed live-object table of the rv frontend: it
// gives real Go objects stable monitoring identities without keeping them
// alive, and queues their garbage-collection deaths for stream-positioned
// delivery.
type Registry = registry.Table

// RegistryStats are the Registry's lifecycle counters.
type RegistryStats = registry.Stats

// NewRegistry returns an empty live-object registry.
func NewRegistry() *Registry { return registry.New() }

// Server is the multi-tenant monitoring server: it accepts wire-protocol
// sessions over TCP (the other end of WithRemote), each with its own
// property, GC policy and backend. This is what cmd/rvserve runs.
type Server = server.Server

// ServerOptions configures a Server.
type ServerOptions = server.Options

// ServerStats are the server's aggregate session counters.
type ServerStats = server.Stats

// NewServer builds a monitoring server; drive it with Serve and stop it
// with Shutdown.
func NewServer(opts ServerOptions) *Server { return server.New(opts) }

// Router is the cluster tier's front door: it accepts the same
// wire-protocol sessions a Server does, but fans each one out across a
// set of rvserve nodes, placing every slice by consistent-hashing its
// pivot parameter and re-homing slots off failed or drained nodes. This
// is what cmd/rvserve runs with -cluster; clients connect with plain
// WithRemote and cannot tell a router from a node.
type Router = cluster.Router

// RouterOptions configures a Router.
type RouterOptions = cluster.RouterOptions

// RouterStatusz is the router's JSON status document (its /statusz).
type RouterStatusz = cluster.Statusz

// NewRouter builds a cluster router over the given nodes; drive it with
// Serve and stop it with Shutdown.
func NewRouter(opts RouterOptions) (*Router, error) { return cluster.NewRouter(opts) }
