package cluster

import (
	"net/http"

	"rvgo/internal/metrics"
)

// Statusz is the JSON document served at the router's /statusz: the
// aggregate, node health, every ready session with its slot placement,
// and the full metrics snapshot. Field names are a stable contract for
// scripts (the CI cluster smoke asserts on nodes and handoffs).
type Statusz struct {
	UptimeSec      float64                  `json:"uptime_sec"`
	Active         int                      `json:"active_sessions"`
	Total          uint64                   `json:"total_sessions"`
	Events         uint64                   `json:"events"`
	Verdicts       uint64                   `json:"verdicts"`
	Handoffs       uint64                   `json:"handoffs"`
	HandoffRecords uint64                   `json:"handoff_records"`
	Nodes          []NodeHealth             `json:"nodes"`
	Sessions       []RouterSessionStatus    `json:"sessions"`
	Metrics        []metrics.FamilySnapshot `json:"metrics"`
}

// NodeHealth is one configured node's health state.
type NodeHealth struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// RouterSessionStatus is one active session's point-in-time state.
type RouterSessionStatus struct {
	ID        uint64       `json:"id"`
	Tenant    string       `json:"tenant"`
	Window    int          `json:"window"`
	Events    uint64       `json:"events"`
	UptimeSec float64      `json:"uptime_sec"`
	Nodes     []NodeStatus `json:"nodes"`
}

// Statusz assembles the snapshot: the front's aggregate and session
// listing, plus what only the router knows — node health, handoffs, and
// each session's slot placement (which takes its fanout's lock briefly).
func (r *Router) Statusz() Statusz {
	front := r.srv.Statusz()
	out := Statusz{
		UptimeSec:      front.UptimeSec,
		Active:         front.Active,
		Total:          front.Total,
		Events:         front.Events,
		Verdicts:       front.Verdicts,
		Handoffs:       r.handoffs.Load(),
		HandoffRecords: r.handoffRecords.Load(),
		Metrics:        front.Metrics,
	}
	r.mu.Lock()
	for _, n := range r.opts.Nodes {
		out.Nodes = append(out.Nodes, NodeHealth{Addr: n, Healthy: r.health[n]})
	}
	r.mu.Unlock()
	for _, s := range front.Sessions {
		r.mu.Lock()
		f := r.live[s.ID]
		r.mu.Unlock()
		if f == nil {
			continue // closing: its fanout already left the live set
		}
		out.Sessions = append(out.Sessions, RouterSessionStatus{
			ID:        s.ID,
			Tenant:    s.Tenant,
			Window:    s.Window,
			Events:    s.Events,
			UptimeSec: s.UptimeSec,
			Nodes:     f.Nodes(),
		})
	}
	return out
}

// DebugHandler returns the router's introspection surface, for serving on
// a side listener (rvserve -cluster -metrics): the front's /metrics (the
// rv_cluster_* families beside its own rv_server_* ones) and pprof
// endpoints, with the router's Statusz document at /statusz.
func (r *Router) DebugHandler() http.Handler {
	return r.srv.DebugHandlerFor(func() any { return r.Statusz() })
}
