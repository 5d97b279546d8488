package rvgo_test

import (
	"bytes"
	"encoding/json"
	"io"
	"os/exec"
	"sort"
	"strings"
	"testing"
)

// The façade boundary: rvgo and rvgo/spec are the only packages outside
// internal/ that may touch rvgo/internal/... — they ARE the public
// surface over it. The public frontend (rv) is implemented
// purely on the façade, and the command-line tools may additionally use
// the tool-glue trio below (shared flag validation and the evaluation
// harness, which are dev tooling, not API). Everything else is a
// boundary violation: it would hand users an import path that a future
// refactor breaks.
var (
	// facadePackages may import any internal package.
	facadePackages = map[string]bool{
		"rvgo":      true,
		"rvgo/spec": true,
	}
	// publicPackages is the complete allowed set of non-main packages
	// outside internal/ (the façade plus the live-object frontend).
	publicPackages = map[string]bool{
		"rvgo":      true,
		"rvgo/spec": true,
		"rvgo/rv":   true,
	}
	// toolGlue is what a main package (cmd/, examples/) may import from
	// internal/: the shared CLI validation and the evaluation/workload
	// harness driven by rvbench and rvload.
	toolGlue = map[string]bool{
		"rvgo/internal/cliutil": true,
		"rvgo/internal/eval":    true,
		"rvgo/internal/dacapo":  true,
	}
)

type listedPackage struct {
	ImportPath string
	Name       string
	Imports    []string
}

// TestBoundary enforces the façade boundary with `go list`: no package
// outside internal/ — except the façade itself, and tool glue for main
// packages — imports rvgo/internal/..., and no new public package
// appears outside internal/ unannounced. CI runs this in the lint job;
// test-only imports are exempt (the façade's own oracle tests compare
// against internal backends by design).
func TestBoundary(t *testing.T) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Name,Imports", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) < 10 {
		t.Fatalf("go list returned %d packages — wrong working directory?", len(pkgs))
	}

	var violations []string
	for _, p := range pkgs {
		if strings.HasPrefix(p.ImportPath, "rvgo/internal/") {
			continue
		}
		if p.Name != "main" && !publicPackages[p.ImportPath] {
			violations = append(violations,
				p.ImportPath+": new public (non-main) package outside internal/ — extend the façade instead, or add it here deliberately")
			continue
		}
		// The cluster backend is façade-only: even the other public
		// packages (rvgo/spec, the frontend) and the tool mains reach it
		// through rvgo.WithCluster, never by import — its wire-level
		// membership machinery is not a public surface.
		for _, imp := range p.Imports {
			if imp == "rvgo/internal/cluster" && p.ImportPath != "rvgo" {
				violations = append(violations,
					p.ImportPath+" imports rvgo/internal/cluster — the cluster backend is façade-only (use rvgo.WithCluster)")
			}
		}
		if facadePackages[p.ImportPath] {
			continue
		}
		for _, imp := range p.Imports {
			if !strings.HasPrefix(imp, "rvgo/internal/") {
				continue
			}
			if p.Name == "main" && toolGlue[imp] {
				continue
			}
			violations = append(violations, p.ImportPath+" imports "+imp)
		}
	}
	sort.Strings(violations)
	for _, v := range violations {
		t.Errorf("façade boundary violation: %s", v)
	}
}
