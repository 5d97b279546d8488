package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"rvgo/internal/metrics"
)

// Statusz is the JSON document served at /statusz: the server aggregate,
// every ready session, and the full metrics snapshot. Its field names are
// a stable contract — cmd/rvtop (which may not import internal packages)
// parses this shape with its own mirror structs.
type Statusz struct {
	UptimeSec float64                  `json:"uptime_sec"`
	Active    int                      `json:"active_sessions"`
	Total     uint64                   `json:"total_sessions"`
	Events    uint64                   `json:"events"`
	Verdicts  uint64                   `json:"verdicts"`
	Sessions  []SessionStatus          `json:"sessions"`
	Metrics   []metrics.FamilySnapshot `json:"metrics"`
}

// SessionStatus is one active session's point-in-time state. Shards and
// the stall counters describe the local backend; behind any other they
// are zero.
type SessionStatus struct {
	ID        uint64  `json:"id"`
	Tenant    string  `json:"tenant"`
	Shards    int     `json:"shards"`
	Window    int     `json:"window"`
	Events    uint64  `json:"events"`
	Stalls    uint64  `json:"stalls"`
	StallSec  float64 `json:"stall_sec"`
	UptimeSec float64 `json:"uptime_sec"`
}

// Statusz assembles the /statusz snapshot. Safe to call from any
// goroutine: session fields are published by the ready flag and counters
// are atomics, so the scrape never barriers or blocks a backend.
func (s *Server) Statusz() Statusz {
	st := s.Stats()
	out := Statusz{
		UptimeSec: time.Since(s.started).Seconds(),
		Active:    st.ActiveSessions,
		Total:     st.TotalSessions,
		Events:    st.Events,
		Verdicts:  st.Verdicts,
	}
	s.mu.Lock()
	live := make([]*Session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, sess := range live {
		if !sess.ready.Load() {
			continue // still in handshake; its fields are not published yet
		}
		st := SessionStatus{
			ID:        sess.ID,
			Tenant:    sess.Spec.Name,
			Window:    sess.window,
			Events:    sess.events.Load(),
			UptimeSec: time.Since(sess.opened).Seconds(),
		}
		if b, ok := sess.b.(*local); ok {
			st.Shards = b.shardCount()
			st.Stalls = b.stalls.Load()
			st.StallSec = float64(b.stallNs.Load()) / 1e9
		}
		out.Sessions = append(out.Sessions, st)
	}
	sort.Slice(out.Sessions, func(a, b int) bool { return out.Sessions[a].ID < out.Sessions[b].ID })
	out.Metrics = s.reg.Snapshot()
	return out
}

// DebugHandler returns the server's introspection surface, for serving on
// a side listener (rvserve -metrics):
//
//	/metrics        Prometheus text exposition of every registered series
//	/statusz        the Statusz JSON snapshot (what cmd/rvtop polls)
//	/debug/pprof/*  the standard Go profiling endpoints
//
// Handlers read only atomics and registry snapshots — scraping never
// stalls a session or a shard worker.
func (s *Server) DebugHandler() http.Handler {
	return s.DebugHandlerFor(func() any { return s.Statusz() })
}

// DebugHandlerFor is DebugHandler serving the caller's /statusz document
// in place of the Server's own (the cluster router adds node health and
// slot placement to it).
func (s *Server) DebugHandlerFor(statusz func() any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WriteProm(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(statusz())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
