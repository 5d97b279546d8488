package server_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"rvgo"
	"rvgo/internal/server"
	"rvgo/internal/trace"
	"rvgo/spec"
)

// TestSessionRecording: one remote session records the same stream at
// both ends. The server's RecordDir trace and the client's WithRecord
// trace scan to the same record sequence, on a sequential and on a
// 2-shard server backend.
func TestSessionRecording(t *testing.T) {
	sp, err := spec.Builtin("UnsafeIter")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			srv, addr := startServerOpts(t, server.Options{RecordDir: dir})
			client := filepath.Join(t.TempDir(), "client.rvt")
			m, err := rvgo.New(sp, rvgo.WithRemote(addr), rvgo.WithShards(shards), rvgo.WithRecord(client))
			if err != nil {
				t.Fatal(err)
			}
			create, update, next := m.MustEvent("create"), m.MustEvent("update"), m.MustEvent("next")
			h := rvgo.NewHeap()
			for c := 0; c < 8; c++ {
				coll := h.Alloc("c")
				for i := 0; i < 3; i++ {
					it := h.Alloc("i")
					create.Emit(coll, it)
					next.Emit(it)
					if (c+i)%3 == 0 {
						update.Emit(coll)
						next.Emit(it) // the UnsafeIter match
					}
					m.Free(it)
					h.Free(it)
				}
				update.Emit(coll)
				m.Free(coll)
				h.Free(coll)
			}
			m.Close()
			if err := m.Err(); err != nil {
				t.Fatal(err)
			}
			// The session seals its trace when it closes, before it leaves
			// the server's active set.
			for deadline := time.Now().Add(5 * time.Second); srv.Stats().ActiveSessions > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the session never closed")
				}
			}
			want := scanTrace(t, client)
			got := scanTrace(t, filepath.Join(dir, "session-1.rvt"))
			if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("server trace differs from the client's:\n  server %v\n  client %v", got, want)
			}
		})
	}
}

// scanTrace returns a trace's records in stream order, one string each.
func scanTrace(t *testing.T, path string) []string {
	t.Helper()
	r, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	names := r.SymbolNames()
	var recs []string
	err = r.Scan(func(x trace.Record) error {
		if x.Free {
			recs = append(recs, fmt.Sprint("free", x.IDs))
		} else {
			recs = append(recs, fmt.Sprint(names[x.Sym], x.IDs))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
