// masks.go: where each object's records went — the fanout's per-object
// lane masks (see "Masks" in fanout.go's package doc).
package cluster

import (
	"rvgo/internal/param"
	"rvgo/internal/probe"
)

// placement is an object's entry: the lanes its records went to, and the
// single-parameter domains of the masked events that named it — the stamps
// the engines of those lanes keep on the object, which a lane it moves to
// must be given first.
type placement struct {
	id     uint64
	lanes  uint64
	stamps param.Set
}

// masks is the table of placements, by object ID: an entry from the
// object's first record to its free. Entries are found through an
// open-addressing index (package probe) that stores handle+1 and reads the
// ID back from the entry, and freed entries are reused, so a placement
// costs no allocation once the table has grown to the live objects. It
// has no lock of its own: the fanout's mutex guards it.
type masks struct {
	idx  probe.Table[uint32]
	recs []placement
	free []uint32 // recycled handles, LIFO
}

func newMasks() *masks { return &masks{idx: probe.New[uint32]()} }

func (m *masks) hash(id uint64) uint64  { return probe.Mix(m.idx.Seed(), id) }
func (m *masks) rehash(x uint32) uint64 { return m.hash(m.recs[x-1].id) }

// find returns the handle of id's entry, if the table holds one.
func (m *masks) find(id uint64) (uint32, bool) {
	for i := m.idx.Home(m.hash(id)); ; i = m.idx.Next(i) {
		x := m.idx.Slot(i)
		if x == 0 {
			return 0, false
		}
		if m.recs[x-1].id == id {
			return x - 1, true
		}
	}
}

// lanes returns the lanes id's records went to: none for an object the
// table holds no entry for.
func (m *masks) lanes(id uint64) uint64 {
	if h, ok := m.find(id); ok {
		return m.recs[h].lanes
	}
	return 0
}

// get returns id's entry, adding an empty one on first sight. The pointer
// is good until the next get.
func (m *masks) get(id uint64) *placement {
	if h, ok := m.find(id); ok {
		return &m.recs[h]
	}
	var h uint32
	if n := len(m.free); n > 0 {
		h = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		h = uint32(len(m.recs))
		m.recs = append(m.recs, placement{})
	}
	m.recs[h] = placement{id: id}
	m.idx.Insert(m.hash(id), h+1, m.rehash)
	return &m.recs[h]
}

// drop removes id's entry, if any: the object was freed.
func (m *masks) drop(id uint64) {
	h, ok := m.find(id)
	if !ok {
		return
	}
	m.idx.Delete(m.hash(id), h+1, m.rehash)
	m.recs[h] = placement{}
	m.free = append(m.free, h)
}
