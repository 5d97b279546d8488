package inlinecheck

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestPinsHold builds the pinned packages of this module and requires
// every pin to hold.
func TestPinsHold(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Check(root, Pins)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// TestPinsFail: a pin on a function the compiler does not inline, and one
// on a parameter that escapes, both fail with the compiler's message.
func TestPinsFail(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Check(root, []Pin{
		{Pkg: "internal/index", Inline: "(*Set).ForEach"},
		{Pkg: "internal/monitor", Func: "SetOnRelease", Param: "f"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 {
		t.Fatalf("%d pins failed, want 2: %q", len(bad), bad)
	}
	for _, b := range bad {
		t.Log(b)
	}
}
