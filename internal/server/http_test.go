package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/remote"
	"rvgo/internal/server"
)

// startServerOpts is startServer with options and a handle on the Server.
func startServerOpts(t *testing.T, opts server.Options) (*server.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(opts)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, l.Addr().String()
}

// TestDebugHandler drives a sharded session while scraping /metrics and
// /statusz concurrently: the introspection surface must show engine,
// shard, server, and trace series for the session's tenant, and the
// scrapes must never block ingestion (they only read atomics).
func TestDebugHandler(t *testing.T) {
	dir := t.TempDir()
	srv, addr := startServerOpts(t, server.Options{RecordDir: dir})
	web := httptest.NewServer(srv.DebugHandler())
	defer web.Close()

	cl, err := remote.Dial(addr, remote.Options{
		Prop:   "HasNext",
		GC:     monitor.GCCoenable,
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scrape concurrently with ingestion from a second goroutine.
	scrapeErr := make(chan error, 1)
	go func() {
		defer close(scrapeErr)
		for i := 0; i < 20; i++ {
			for _, path := range []string{"/metrics", "/statusz"} {
				if _, err := get(web.URL + path); err != nil {
					scrapeErr <- err
					return
				}
			}
		}
	}()

	h := heap.New()
	for i := 0; i < 2000; i++ {
		it := h.Alloc("it")
		if err := monitor.EmitNamed(cl, "hasnexttrue", it); err != nil {
			t.Fatal(err)
		}
		if err := monitor.EmitNamed(cl, "next", it); err != nil {
			t.Fatal(err)
		}
		cl.Free(it)
		h.Free(it)
	}
	cl.Flush()
	if err := <-scrapeErr; err != nil {
		t.Fatalf("concurrent scrape: %v", err)
	}

	// Mid-session statusz: the session is visible with its tenant.
	var st statuszDoc
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Active != 1 || len(st.Sessions) != 1 {
		t.Fatalf("statusz: active=%d sessions=%v, want one open session", st.Active, st.Sessions)
	}
	sess := st.Sessions[0]
	if sess.Tenant != "HasNext" || sess.Shards != 2 || sess.Events != 4000 {
		t.Fatalf("statusz session = %+v, want tenant=HasNext shards=2 events=4000", sess)
	}

	cl.Close()

	// After the session closes, every layer's series must be present and
	// nonzero in the Prometheus text, labeled by tenant.
	deadline := time.Now().Add(2 * time.Second)
	var prom string
	for {
		prom = httpGet(t, web.URL+"/metrics")
		if strings.Contains(prom, "rv_server_sessions_active 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never left the active gauge:\n%s", prom)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		`rv_engine_events_total{tenant="HasNext"} 4000`,
		`rv_engine_monitors_created_total{tenant="HasNext"} 2000`,
		`rv_engine_monitors_collected_total{tenant="HasNext"} 2000`,
		`rv_server_events_total{tenant="HasNext"} 4000`,
		`rv_server_sessions_total{tenant="HasNext"} 1`,
		`rv_shard_batches_total{shard="HasNext/s0"}`,
		`rv_trace_records_total{writer="HasNext"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics:\n%s", prom)
	}

	// The recorded trace exists and is nonempty.
	recs, err := filepath.Glob(filepath.Join(dir, "session-*.rvt"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recorded traces = %v (err %v), want one", recs, err)
	}
	if fi, err := os.Stat(recs[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("recorded trace %s empty or unreadable (err %v)", recs[0], err)
	}

	// Final statusz reflects the closed session in the aggregate.
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 1 || st.Events != 4000 || len(st.Sessions) != 0 {
		t.Fatalf("final statusz = total=%d events=%d sessions=%v", st.Total, st.Events, st.Sessions)
	}
}

// statuszDoc mirrors the wire shape (what rvtop does) rather than reusing
// server.Statusz, so a field rename breaks this test, not just rvtop.
type statuszDoc struct {
	UptimeSec float64 `json:"uptime_sec"`
	Active    int     `json:"active_sessions"`
	Total     uint64  `json:"total_sessions"`
	Events    uint64  `json:"events"`
	Verdicts  uint64  `json:"verdicts"`
	Sessions  []struct {
		ID     uint64 `json:"id"`
		Tenant string `json:"tenant"`
		Shards int    `json:"shards"`
		Events uint64 `json:"events"`
	} `json:"sessions"`
	Metrics []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
	} `json:"metrics"`
}

func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body), nil
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	body, err := get(url)
	if err != nil {
		t.Fatal(err)
	}
	return body
}
