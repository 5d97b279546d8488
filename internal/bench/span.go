package main

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// blockRecords is the span granularity of a traced rep: one block span
// per this many records, with a child span per Monitor.Free inside it.
const blockRecords = 4096

// span is one traced interval, recorded by the benchmark's own code around
// its calls into the system: new/dial, block, free, flush, close. Times
// are nanoseconds since the rep's tracer was created. A block's self time
// is its duration minus its free children's.
type span struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Records  int    `json:"records"`
	Events   int    `json:"events"`
	Frees    int    `json:"frees"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of one rep in a slice sized before the rep, so
// recording a span is two clock reads and a slice store.
type tracer struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
}

func newTracer(workload string, rep, records, frees int) *tracer {
	return &tracer{
		workload: workload, rep: rep, t0: time.Now(),
		spans: make([]span, 0, records/blockRecords+frees+8),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span and returns its index; close it with end.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{
		Workload: t.workload, Rep: t.rep, ID: len(t.spans) + 1, Parent: parent,
		Name: name, Start: t.now(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total is the summed duration and the count of the named spans.
func (t *tracer) total(name string) (d time.Duration, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
			n++
		}
	}
	return d, n
}

// writeSpans appends the rep's spans to w as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
