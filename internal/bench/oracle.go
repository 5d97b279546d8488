package main

import (
	"fmt"
	"sort"

	"rvgo"
	"rvgo/internal/logic"
	"rvgo/internal/monitor"
	"rvgo/internal/param"
)

// vkey identifies one goal verdict: the triggering event, the category and
// the bound objects in ascending parameter order. Reps collect them in the
// verdict handler; the oracle compares multisets.
type vkey struct {
	sym  int32
	cat  logic.Category
	a, b uint64
}

func keyOf(v rvgo.Verdict) vkey {
	k := vkey{sym: int32(v.Sym), cat: v.Cat}
	m := v.Inst.Mask()
	k.a = v.Inst.Value(m.First()).ID()
	if m = m.Rest(); m != 0 {
		k.b = v.Inst.Value(m.First()).ID()
	}
	return k
}

func (k vkey) less(o vkey) bool {
	if k.a != o.a {
		return k.a < o.a
	}
	if k.b != o.b {
		return k.b < o.b
	}
	if k.sym != o.sym {
		return k.sym < o.sym
	}
	return k.cat < o.cat
}

func sortKeys(ks []vkey) { sort.Slice(ks, func(i, j int) bool { return ks[i].less(ks[j]) }) }

// reference is the built-in oracle: the stream's one pass through the
// sequential engine, driven directly (no façade), during set-up.
type reference struct {
	stats monitor.Stats
	// verdicts in delivery order, each with the index of the record whose
	// dispatch delivered it. Paced reps replay a prefix and time each
	// verdict from its record's due time, so they need both.
	verdicts []vkey
	at       []int32
	sorted   []vkey // verdicts, sorted: what a full-stream rep must deliver
	// trigger maps a verdict to the positions (FIFO) it was delivered at;
	// per-slice order is preserved by every backend, so the n-th delivery
	// of a key on any path belongs to the n-th position here.
	trigger map[vkey][]int32
}

// dispatchRecord sends one event record into an engine-level runtime.
func dispatchRecord(rt monitor.Runtime, spec *monitor.Spec, objs []obj, r record) {
	ps := spec.Events[r.sym].Params
	if ps.Count() == 1 {
		rt.Dispatch(int(r.sym), param.Of(ps, &objs[r.a]))
	} else {
		rt.Dispatch(int(r.sym), param.Of(ps, &objs[r.a], &objs[r.b]))
	}
}

func buildReference(st *stream, objs []obj) (*reference, error) {
	ref := &reference{trigger: map[vkey][]int32{}}
	cur := int32(0)
	eng, err := monitor.New(st.spec, monitor.Options{
		GC: monitor.GCCoenable,
		OnVerdict: func(v monitor.Verdict) {
			k := keyOf(v)
			ref.verdicts = append(ref.verdicts, k)
			ref.at = append(ref.at, cur)
			ref.trigger[k] = append(ref.trigger[k], cur)
		},
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	resetObjects(objs)
	for i, r := range st.recs {
		if r.free() {
			objs[r.a].dead.Store(true)
			continue
		}
		cur = int32(i)
		dispatchRecord(eng, st.spec, objs, r)
	}
	eng.Flush()
	ref.stats = eng.Stats()
	ref.sorted = ref.prefix(len(st.recs))
	if ref.stats.Events != uint64(st.events) {
		return nil, fmt.Errorf("bench: reference run saw %d events, stream has %d", ref.stats.Events, st.events)
	}
	return ref, nil
}

// prefix returns the sorted verdicts the first n records deliver.
func (ref *reference) prefix(n int) []vkey {
	cut := sort.Search(len(ref.at), func(i int) bool { return int(ref.at[i]) >= n })
	ks := append([]vkey(nil), ref.verdicts[:cut]...)
	sortKeys(ks)
	return ks
}

// diffKeys returns the size of the symmetric difference of two sorted
// verdict multisets.
func diffKeys(want, got []vkey) int {
	i, j, d := 0, 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case want[i] == got[j]:
			i++
			j++
		case want[i].less(got[j]):
			i++
			d++
		default:
			j++
			d++
		}
	}
	return d + len(want) - i + len(got) - j
}

// checkRep compares one full-stream rep on any path with the reference
// and returns the number of failed operations plus a description of each
// mismatch. A session error fails every operation of the rep; otherwise
// each event missing from the settled Stats.Events, each verdict in the
// symmetric difference and each other diverging counter counts as one.
// PeakLive is compared on the sequential path only: the concurrent paths
// sum per-shard peaks.
func (ref *reference) checkRep(ops int, exactPeak bool, st monitor.Stats, got []vkey, err error) (failed int, why []string) {
	if err != nil {
		return ops, []string{"session error: " + err.Error()}
	}
	counter := func(name string, want, have uint64) {
		if want != have {
			failed++
			why = append(why, fmt.Sprintf("%s = %d, reference %d", name, have, want))
		}
	}
	if st.Events < ref.stats.Events {
		failed += int(ref.stats.Events - st.Events)
		why = append(why, fmt.Sprintf("%d events missing from settled Stats.Events", ref.stats.Events-st.Events))
	} else {
		counter("Events", ref.stats.Events, st.Events)
	}
	counter("Created", ref.stats.Created, st.Created)
	counter("Flagged", ref.stats.Flagged, st.Flagged)
	counter("Collected", ref.stats.Collected, st.Collected)
	counter("GoalVerdicts", ref.stats.GoalVerdicts, st.GoalVerdicts)
	counter("Steps", ref.stats.Steps, st.Steps)
	counter("Live", uint64(ref.stats.Live), uint64(st.Live))
	if exactPeak {
		counter("PeakLive", uint64(ref.stats.PeakLive), uint64(st.PeakLive))
	}
	sortKeys(got)
	if d := diffKeys(ref.sorted, got); d > 0 {
		failed += d
		why = append(why, fmt.Sprintf("verdict multiset differs from the reference in %d verdicts", d))
	}
	return failed, why
}

// checkPrefix is checkRep for a paced rep that replayed the first n
// records: the settled event count and the verdict multiset of the prefix.
func (ref *reference) checkPrefix(n, events int, st monitor.Stats, got []vkey, err error) (failed int, why []string) {
	if err != nil {
		return n, []string{"session error: " + err.Error()}
	}
	if d := events - int(st.Events); d != 0 {
		failed += max(d, -d)
		why = append(why, fmt.Sprintf("Events = %d after a %d-event prefix", st.Events, events))
	}
	sortKeys(got)
	if d := diffKeys(ref.prefix(n), got); d > 0 {
		failed += d
		why = append(why, fmt.Sprintf("prefix verdict multiset differs from the reference in %d verdicts", d))
	}
	return failed, why
}
