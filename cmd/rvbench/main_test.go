package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFig10Row: one benchmark × one property prints that benchmark's
// Figure 10 row.
func TestFig10Row(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-table", "fig10", "-scale", "0.02", "-bench", "avrora", "-prop", "HasNext"}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "\navrora ") {
		t.Errorf("no avrora row in:\n%s", out.String())
	}
}

// TestRefusals: an unknown benchmark and a multi-entry -avoid list are
// errors, not silently narrowed runs.
func TestRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "nosuch"},
		{"-avoid", "-bench", "bloat,pmd"},
		{"-avoid", "-prop", "HasNext,UnsafeIter"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("rvbench %s: no error", strings.Join(args, " "))
		}
	}
}

// TestAvoidTier: the creation-avoidance tier passes its own verification.
func TestAvoidTier(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-avoid", "-scale", "0.02"}, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "full/enforce") {
		t.Errorf("no full/enforce leg in:\n%s", out.String())
	}
}
