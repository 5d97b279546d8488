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
	"errors"
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
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "rvmon: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, monitors the trace (the -trace file, or stdin) and
// prints verdicts, handler output and the -stats lines to stdout; usage
// goes to stderr.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rvmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath  = fs.String("spec", "", "path to the .rv specification (required)")
		tracePath = fs.String("trace", "", "path to the trace file (default: stdin)")
		gcMode    = fs.String("gc", "coenable", "monitor GC policy: coenable, alldead, none")
		shards    = fs.Int("shards", 0, "shard count: >1 runs the sharded runtime locally; with -remote, the session's server-side shards (0 = the server's default)")
		remoteFl  = fs.String("remote", "", "monitor in a session against the rvserve at this address")
		nodesFl   = fs.String("nodes", "", "monitor in one session across these comma-separated rvserve node addresses")
		record    = fs.String("record", "", "record the monitored stream to this trace file (rvquery replays it)")
		stats     = fs.Bool("stats", false, "print monitoring statistics at the end")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" {
		return errors.New("missing -spec")
	}
	src, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	specs, err := spec.Parse(string(src))
	if err != nil {
		return err
	}
	gc, err := cliutil.ParseGC(*gcMode)
	if err != nil {
		return err
	}
	backendOpts, err := cliutil.BackendOptions(*shards, *remoteFl, cliutil.SplitNodes(*nodesFl))
	if err != nil {
		return err
	}
	if *record != "" {
		if len(specs) > 1 {
			return fmt.Errorf("-record needs a spec defining a single property (%s defines %d)", *specPath, len(specs))
		}
		path, err := cliutil.ValidateRecordPath("-record", *record, *tracePath, *specPath)
		if err != nil {
			return err
		}
		backendOpts = append(backendOpts, rvgo.WithRecord(path))
	}

	var engines []*engine
	defer func() {
		for _, e := range engines {
			e.m.Close()
		}
	}()
	for _, sp := range specs {
		handlers := sp.Handlers()
		m, err := rvgo.New(sp, append(backendOpts,
			rvgo.WithGC(gc),
			rvgo.WithVerdictHandler(func(v rvgo.Verdict) {
				fmt.Fprintf(stdout, "%s: %s at %s\n", sp.Name(), v.Cat, v.Inst.Format(sp.Params()))
				if body, ok := handlers[string(v.Cat)]; ok {
					spec.RunHandler(body, func(line string) { fmt.Fprintln(stdout, "  "+line) })
				}
			}))...)
		if err != nil {
			return err
		}
		engines = append(engines, &engine{m: m, name: sp.Name(), emitters: map[string]*rvgo.Emitter{}})
	}

	in := stdin
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
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
				return fmt.Errorf("line %d: event %q takes %d objects, got %d", lineNo, event, want, len(fields)-1)
			}
			vals := make([]rvgo.Ref, 0, len(fields)-1)
			for _, name := range fields[1:] {
				o := obj(name)
				if !o.Alive() {
					return fmt.Errorf("line %d: object %q was freed", lineNo, name)
				}
				vals = append(vals, o)
			}
			em.Emit(vals...)
		}
		if !dispatched {
			return fmt.Errorf("line %d: unknown event %q", lineNo, event)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	if *stats {
		for _, e := range engines {
			e.m.Flush()
			st := e.m.Stats()
			fmt.Fprintf(stdout, "%s: events=%d created=%d flagged=%d collected=%d verdicts=%d\n",
				e.name, st.Events, st.Created, st.Flagged, st.Collected, st.GoalVerdicts)
		}
	}
	for _, e := range engines {
		// Close before the error check: it seals the recorded trace, and a
		// failure of that final write must still be an error.
		e.m.Close()
		if err := e.m.Err(); err != nil {
			return err
		}
	}
	return nil
}
