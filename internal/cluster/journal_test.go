package cluster

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestJournalChunks appends records of every awkward size — empty ID
// lists, ones that exactly fill a chunk, ones larger than a chunk — while
// a cursor follows at random distances, parking at chunk ends before the
// next chunk exists, and requires every record back unchanged and no
// record moved by a later append.
func TestJournalChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		sym int
		ids []uint64
	}
	var j journal
	var want []rec
	var cur jcursor
	first := map[int]*uint64{} // record index → address of its first ID
	read := func(upto int) {
		events := 0
		for _, r := range want[cur.rec:upto] {
			if r.sym >= 0 {
				events++
			}
		}
		if got := j.events(cur, upto); got != events {
			t.Fatalf("events(%d, %d) = %d, want %d", cur.rec, upto, got, events)
		}
		for cur.rec < upto {
			sym, ids := j.at(&cur)
			w := want[cur.rec]
			if sym != w.sym || len(ids) != len(w.ids) || (len(ids) > 0 && !reflect.DeepEqual(ids, w.ids)) {
				t.Fatalf("record %d = (%d, %v), want (%d, %v)", cur.rec, sym, ids, w.sym, w.ids)
			}
			if len(ids) > 0 && first[cur.rec] != &ids[0] {
				t.Fatalf("record %d moved after it was appended", cur.rec)
			}
			cur.next(len(ids))
		}
	}
	sizes := []int{0, 1, 2, 3, journalChunk - 1, journalChunk, journalChunk + 5}
	for k := 0; k < 20000; k++ {
		n := sizes[rng.Intn(4)]
		if rng.Intn(500) == 0 {
			n = sizes[4+rng.Intn(3)]
		}
		r := rec{sym: rng.Intn(4) - 1, ids: make([]uint64, n)}
		for i := range r.ids {
			r.ids[i] = rng.Uint64()
		}
		j.append(r.sym, r.ids)
		want = append(want, r)
		if n > 0 {
			last := j.chunks[len(j.chunks)-1]
			first[len(want)-1] = &last[len(last)-n]
		}
		if rng.Intn(3) == 0 {
			read(cur.rec + rng.Intn(j.n-cur.rec+1))
		}
	}
	read(j.n)
	if j.n != len(want) {
		t.Fatalf("journal holds %d records, want %d", j.n, len(want))
	}
	for _, c := range j.chunks[:len(j.chunks)-1] {
		if cap(c) < journalChunk {
			t.Fatalf("chunk of %d words, want at least %d", cap(c), journalChunk)
		}
	}
}
