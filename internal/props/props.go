// Package props is the built-in property library: the five properties the
// paper evaluates on DaCapo (§5.1) plus the non-iterator properties it
// mentions (HASHSET, SAFEENUM, SAFEFILE, SAFEFILEWRITER) and the SAFELOCK
// CFG property of Figure 4. Each property is one embedded .rv file named
// after it (HasNext.rv, UnsafeIter.rv, ...), compiled by internal/spec
// like any other specification source, with the static analyses run.
//
// Events correspond to the paper's AspectJ pointcuts, renamed to plain
// identifiers since this reproduction instruments programs through an
// explicit API (see package dacapo and DESIGN.md).
package props

import (
	"embed"
	"fmt"
	"strings"

	"rvgo/internal/monitor"
	ispec "rvgo/internal/spec"
)

//go:embed *.rv
var library embed.FS

// Names returns the library's property names, sorted: ReadDir sorts the
// files by name, and '.' sorts before every character a name may go on
// with, so "SafeFile.rv" comes before "SafeFileWriter.rv".
func Names() []string {
	files, err := library.ReadDir(".")
	if err != nil {
		panic(err) // the embedded root always reads
	}
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = strings.TrimSuffix(f.Name(), ".rv")
	}
	return out
}

// Build compiles a property by name.
func Build(name string) (*monitor.Spec, error) {
	src, err := library.ReadFile(name + ".rv")
	if err != nil {
		return nil, fmt.Errorf("props: unknown property %q", name)
	}
	return ispec.CompileOne(string(src))
}

// DaCapoProperties are the five properties of the paper's evaluation, in
// the column order of Figures 9 and 10.
func DaCapoProperties() []string {
	return []string{"HasNext", "UnsafeIter", "UnsafeMapIter", "UnsafeSyncColl", "UnsafeSyncMap"}
}
