package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current report output")

// TestGoldenOutput pins the rvcoenable report for every built-in property
// — the full Section 3 analysis, and the -guards avoidance summary for
// UnsafeIter — against golden files. Regenerate with `go test ./cmd/rvcoenable -update` after a
// deliberate format change and review the diff.
func TestGoldenOutput(t *testing.T) {
	cases := []struct {
		name   string
		prop   string
		guards bool
	}{
		{"unsafeiter", "UnsafeIter", false},
		{"unsafeiter_guards", "UnsafeIter", true},
		{"hasnext", "HasNext", false},
		{"unsafemapiter", "UnsafeMapIter", false},
		{"unsafesynccoll", "UnsafeSyncColl", false},
		{"unsafesyncmap", "UnsafeSyncMap", false},
		{"hasnextltl", "HasNextLTL", false},
		{"safelock", "SafeLock", false},
		{"safelockmatch", "SafeLockMatch", false},
		{"hashset", "HashSet", false},
		{"safeenum", "SafeEnum", false},
		{"safefile", "SafeFile", false},
		{"safefilewriter", "SafeFileWriter", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			specs, err := resolveSpecs("", tc.prop)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := writeReport(&buf, specs, tc.guards); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v — run `go test ./cmd/rvcoenable -update` to create it", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report for %s differs from %s:\n got:\n%s\nwant:\n%s\nIf the change is deliberate, regenerate with -update and review the diff.",
					tc.prop, path, buf.Bytes(), want)
			}
		})
	}
}
