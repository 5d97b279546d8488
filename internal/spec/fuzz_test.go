package spec_test

import (
	"os"
	"path/filepath"
	"testing"

	"rvgo/internal/spec"
)

// FuzzParse holds the one .rv front end to its contract on any input: Parse
// never panics, and a property it accepts passes the declaration check the
// compiler and spec.Builder share and has a handler on every logic block.
// It parses only: compiling a blueprint can take time exponential in a
// small ERE. The seeds are the built-in library, the refused sources and
// the accepted ones of TestParseGoodSources.
func FuzzParse(f *testing.F) {
	lib, err := filepath.Glob(filepath.Join("..", "props", "*.rv"))
	if err != nil || len(lib) == 0 {
		f.Fatalf("no library sources: %v", err)
	}
	for _, path := range lib {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range badSources {
		f.Add(src)
	}
	for _, tc := range goodSources {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := spec.Parse(src)
		if err != nil {
			return
		}
		if errs := p.DeclErrors(); len(errs) > 0 {
			t.Fatalf("accepted %q with declaration errors %v", src, errs)
		}
		if p.Name == "" || len(p.Params) == 0 || len(p.Events) == 0 || len(p.Logics) == 0 {
			t.Fatalf("accepted %q with an empty part: %+v", src, p)
		}
		for _, lb := range p.Logics {
			if len(lb.Handlers) == 0 {
				t.Fatalf("accepted %q with a %s block that has no handler", src, lb.Kind)
			}
		}
	})
}
