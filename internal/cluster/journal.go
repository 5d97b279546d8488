// journal.go: a slot's record log. Records live in fixed-size chunks of
// words with their IDs inline, so appending never re-copies what is
// already journaled and a record costs no allocation of its own; a chunk
// is immutable once a later one exists.
package cluster

// journalChunk is the chunk capacity in words (32 KiB). A record larger
// than that gets a chunk of its own.
const journalChunk = 4096

// journal is an append-only log of event and free records. A record is a
// header word — (sym+1)<<32 | len(ids), so a free (sym -1) has a zero
// upper half — followed by its IDs; records never straddle chunks.
type journal struct {
	chunks [][]uint64
	n      int // records
}

// jcursor is a position in a journal: the next record's index and where
// its header word sits.
type jcursor struct {
	rec   int
	chunk int
	off   int
}

// append adds one record; sym < 0 is a free.
func (j *journal) append(sym int, ids []uint64) {
	need := 1 + len(ids)
	last := len(j.chunks) - 1
	if last < 0 || len(j.chunks[last])+need > cap(j.chunks[last]) {
		size := journalChunk
		if need > size {
			size = need
		}
		j.chunks = append(j.chunks, make([]uint64, 0, size))
		last++
	}
	c := append(j.chunks[last], uint64(sym+1)<<32|uint64(len(ids)))
	j.chunks[last] = append(c, ids...)
	j.n++
}

// at decodes the record at c, which must be short of the end, first
// stepping c over a chunk boundary (a cursor parked at the end of a chunk
// learns only now that the chunk was sealed). ids aliases the journal and
// must not be modified.
func (j *journal) at(c *jcursor) (sym int, ids []uint64) {
	if c.off == len(j.chunks[c.chunk]) {
		c.chunk, c.off = c.chunk+1, 0
	}
	ch := j.chunks[c.chunk]
	hdr := ch[c.off]
	return int(hdr>>32) - 1, ch[c.off+1 : c.off+1+int(uint32(hdr))]
}

// next advances c past the record at c, whose ID count is nids.
func (c *jcursor) next(nids int) {
	c.rec++
	c.off += 1 + nids
}

// events counts the event records in [c, upto).
func (j *journal) events(c jcursor, upto int) int {
	n := 0
	for c.rec < upto {
		sym, ids := j.at(&c)
		if sym >= 0 {
			n++
		}
		c.next(len(ids))
	}
	return n
}
