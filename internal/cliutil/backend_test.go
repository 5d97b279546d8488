package cliutil_test

import (
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rvgo"
	"rvgo/internal/cliutil"
	"rvgo/spec"
)

// startServer runs an in-process monitoring server whose sessions default
// to two shards, so a session that leaves the choice to the server is
// told apart from one that asks for a single shard.
func startServer(t *testing.T) (*rvgo.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rvgo.NewServer(rvgo.ServerOptions{DefaultShards: 2})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Shutdown(5 * time.Second) })
	return srv, l.Addr().String()
}

// TestBackendOptions pins the tools' backend flags: each flag maps to its
// own façade option, -shards 0 leaves a remote session's shard count to the
// server's default, and the combinations that mean nothing are refused by
// rvgo.New.
func TestBackendOptions(t *testing.T) {
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t)
	_, addr2 := startServer(t)
	nodes := []string{addr, addr2}
	cases := []struct {
		name      string
		shards    int
		remote    string
		nodes     []string
		nopts     int    // options BackendOptions returns
		srvShards int    // > 0: the session's shard count as the server lists it
		errSub    string // non-empty: rvgo.New fails with it
	}{
		{name: "Sequential", shards: 0},
		{name: "SequentialOneShard", shards: 1},
		{name: "Sharded", shards: 4, nopts: 1},
		{name: "RemoteServerDefault", remote: addr, nopts: 1, srvShards: 2},
		{name: "RemoteOneShard", shards: 1, remote: addr, nopts: 2, srvShards: 1},
		{name: "RemoteSharded", shards: 3, remote: addr, nopts: 2, srvShards: 3},
		{name: "Cluster", nodes: nodes, nopts: 1},
		{name: "ClusterOneShard", shards: 1, nodes: nodes, nopts: 1},
		{name: "ClusterAndRemote", remote: addr, nodes: nodes, nopts: 2, errSub: "mutually exclusive"},
		{name: "ClusterShards", shards: 4, nodes: nodes, nopts: 2, errSub: "WithShards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts, err := cliutil.BackendOptions(tc.shards, tc.remote, tc.nodes)
			if err != nil {
				t.Fatal(err)
			}
			if len(opts) != tc.nopts {
				t.Fatalf("%d options, want %d", len(opts), tc.nopts)
			}
			m, err := rvgo.New(sp, opts...)
			if tc.errSub != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errSub) {
					t.Fatalf("New error = %v, want one containing %q", err, tc.errSub)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if got := len(m.Nodes()); got != len(tc.nodes) {
				t.Errorf("cluster membership of %d nodes, want %d", got, len(tc.nodes))
			}
			if tc.srvShards == 0 {
				return
			}
			// The newest session is this one; earlier cases' may linger.
			sessions := srv.Statusz().Sessions
			if len(sessions) == 0 || sessions[len(sessions)-1].Shards != tc.srvShards {
				t.Errorf("server lists sessions %+v, want the newest with %d shards", sessions, tc.srvShards)
			}
		})
	}
	if _, err := cliutil.BackendOptions(-1, "", nil); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("-shards -1: error %v, want one naming -shards", err)
	}
}

// TestSplitNodes pins the -nodes list syntax: comma-separated, whitespace
// and empty entries tolerated.
func TestSplitNodes(t *testing.T) {
	if got := cliutil.SplitNodes(" a:1, b:2 ,,c:3,"); !reflect.DeepEqual(got, []string{"a:1", "b:2", "c:3"}) {
		t.Fatalf("got %q", got)
	}
	if got := cliutil.SplitNodes(""); got != nil {
		t.Fatalf("empty list: got %q, want nil", got)
	}
}
