// Command rvmon compiles an .rv specification and monitors a parametric
// event trace against it, printing handler output as verdicts are reached.
//
// Usage:
//
//	rvmon -spec hasnext.rv [-trace trace.txt] [-gc coenable|alldead|none]
//	      [-shards N] [-remote addr | -nodes a:7472,b:7472]
//	      [-record run.rvt] [-stats]
//
// -record taps the monitored stream into a persistent trace (the segment
// format cmd/rvquery replays), so the run can be re-checked later against
// any property over the same events. It requires a spec defining a single
// property (one trace records one stream).
//
// The backend follows from the flags, each of which selects its own: by
// default the in-process sequential engine; -shards N > 1 the sharded
// concurrent runtime; -remote a session against an rvserve monitoring
// server (the spec must define a single property, which both ends compile
// and verify in the handshake; -shards sizes the session's server-side
// backend, left to the server's default when unset); -nodes one logical
// session spread across a cluster of rvserve nodes, with slices placed by
// pivot hash. Trace semantics are identical on every backend — every
// "free" line is positioned in the runtime's stream with Free before the
// object is killed, so deaths land at their trace positions, exactly as
// the sequential engine observes them.
//
// The trace is read from the file or stdin, one step per line:
//
//	<event> <object>...   dispatch a parametric event, e.g. "next i1"
//	free <object>         the object is garbage collected
//	# comment             ignored
//
// Objects are named symbolically; each name denotes one simulated heap
// object, allocated on first mention.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rvgo"
	"rvgo/internal/cliutil"
	"rvgo/spec"
)

// engine is one monitor plus its per-event emitter cache: every trace
// line after the first with a given event name dispatches through a
// pre-resolved emitter (the façade's hot path), not a name lookup.
type engine struct {
	m        *rvgo.Monitor
	name     string
	emitters map[string]*rvgo.Emitter // nil entry: event unknown to this spec
}

func (e *engine) emitter(event string) *rvgo.Emitter {
	em, ok := e.emitters[event]
	if !ok {
		if resolved, err := e.m.Event(event); err == nil {
			em = &resolved
		}
		e.emitters[event] = em
	}
	return em
}

func main() {
	var (
		specPath  = flag.String("spec", "", "path to the .rv specification (required)")
		tracePath = flag.String("trace", "", "path to the trace file (default: stdin)")
		gcMode    = flag.String("gc", "coenable", "monitor GC policy: coenable, alldead, none")
		shards    = flag.Int("shards", 0, "shard count: >1 runs the sharded runtime locally; with -remote, the session's server-side shards (0 = the server's default)")
		remoteFl  = flag.String("remote", "", "monitor in a session against the rvserve at this address")
		nodesFl   = flag.String("nodes", "", "monitor in one session across these comma-separated rvserve node addresses")
		record    = flag.String("record", "", "record the monitored stream to this trace file (rvquery replays it)")
		stats     = flag.Bool("stats", false, "print monitoring statistics at the end")
	)
	flag.Parse()
	if *specPath == "" {
		fatalf("missing -spec")
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	specs, err := spec.Parse(string(src))
	if err != nil {
		fatalf("%v", err)
	}
	gc, err := cliutil.ParseGC(*gcMode)
	if err != nil {
		fatalf("%v", err)
	}
	backendOpts, err := cliutil.BackendOptions(*shards, *remoteFl, cliutil.SplitNodes(*nodesFl))
	if err != nil {
		fatalf("%v", err)
	}
	if *record != "" {
		if len(specs) > 1 {
			fatalf("-record needs a spec defining a single property (%s defines %d)", *specPath, len(specs))
		}
		path, err := cliutil.ValidateRecordPath("-record", *record, *tracePath, *specPath)
		if err != nil {
			fatalf("%v", err)
		}
		backendOpts = append(backendOpts, rvgo.WithRecord(path))
	}

	var engines []*engine
	for _, sp := range specs {
		sp := sp
		handlers := sp.Handlers()
		m, err := rvgo.New(sp, append(backendOpts,
			rvgo.WithGC(gc),
			rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
				fmt.Printf("%s: %s at %s\n", sp.Name(), v.Cat, v.Inst.Format(sp.Params()))
				if body, ok := handlers[string(v.Cat)]; ok {
					spec.RunHandler(body, func(line string) { fmt.Println("  " + line) })
				}
			}))...)
		if err != nil {
			fatalf("%v", err)
		}
		engines = append(engines, &engine{m: m, name: sp.Name(), emitters: map[string]*rvgo.Emitter{}})
	}

	var in io.Reader = os.Stdin
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}

	h := rvgo.NewHeap()
	objects := map[string]*rvgo.Object{}
	obj := func(name string) *rvgo.Object {
		if o, ok := objects[name]; ok {
			return o
		}
		o := h.Alloc(name)
		objects[name] = o
		return o
	}

	sc := bufio.NewScanner(in)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields := strings.Fields(strings.TrimSpace(sc.Text()))
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if fields[0] == "free" {
			// The backends position the deaths behind everything
			// dispatched so far (a queued record on the asynchronous
			// backends, no waiting), then the heap applies them.
			var refs []rvgo.Ref
			var objs []*rvgo.Object
			for _, name := range fields[1:] {
				if o, ok := objects[name]; ok {
					refs = append(refs, o)
					objs = append(objs, o)
				}
			}
			if len(refs) > 0 {
				for _, e := range engines {
					e.m.Free(refs...)
				}
				for _, o := range objs {
					h.Free(o)
				}
			}
			continue
		}
		event := fields[0]
		dispatched := false
		for _, e := range engines {
			em := e.emitter(event)
			if em == nil {
				continue
			}
			dispatched = true
			if want := em.Arity(); len(fields)-1 != want {
				fatalf("line %d: event %q takes %d objects, got %d", lineNo, event, want, len(fields)-1)
			}
			vals := make([]rvgo.Ref, 0, len(fields)-1)
			for _, name := range fields[1:] {
				o := obj(name)
				if !o.Alive() {
					fatalf("line %d: object %q was freed", lineNo, name)
				}
				vals = append(vals, o)
			}
			em.Emit(vals...)
		}
		if !dispatched {
			fatalf("line %d: unknown event %q", lineNo, event)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("%v", err)
	}

	if *stats {
		for _, e := range engines {
			e.m.Flush()
			st := e.m.Stats()
			fmt.Printf("%s: events=%d created=%d flagged=%d collected=%d verdicts=%d\n",
				e.name, st.Events, st.Created, st.Flagged, st.Collected, st.GoalVerdicts)
		}
	}
	for _, e := range engines {
		// Close before the error check: it seals the recorded trace, and a
		// failure of that final write must still be fatal.
		e.m.Close()
		if err := e.m.Err(); err != nil {
			fatalf("%v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvmon: "+format+"\n", args...)
	os.Exit(1)
}
