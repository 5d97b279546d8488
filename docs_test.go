package rvgo_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches references to markdown files: bare names in Go comments
// ("see DESIGN.md") and link targets in markdown ("[x](DESIGN.md)").
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocsHealth fails when a *.md file referenced from a Go source or a
// markdown file does not exist in the repository — documentation that the
// code promises must actually be committed. (CI runs this as its
// docs-health step.)
func TestDocsHealth(t *testing.T) {
	refs := map[string][]string{} // referenced md path -> referring files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdRef.FindAllString(string(raw), -1) {
			// References are repo-root-relative by convention; strip a
			// leading "./".
			m = strings.TrimPrefix(m, "./")
			refs[m] = append(refs[m], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no markdown references found at all — is the test running at the repo root?")
	}
	for target, sources := range refs {
		if _, err := os.Stat(target); err != nil {
			// Deduplicate and cap the source list for the message.
			seen := map[string]bool{}
			var uniq []string
			for _, s := range sources {
				if !seen[s] {
					seen[s] = true
					uniq = append(uniq, s)
				}
			}
			t.Errorf("%s is referenced by %s but does not exist", target, strings.Join(uniq, ", "))
		}
	}
	checkOptionNames(t)
}

// optionName matches a façade option named in prose or code, with or
// without its rvgo. qualifier.
var optionName = regexp.MustCompile(`\bWith[A-Z][A-Za-z]*\b`)

// checkOptionNames fails when the user-facing documentation — README.md,
// DESIGN.md, doc.go and the examples — names a With* option the façade's
// exported surface (api/rvgo.txt) does not have. CHANGES.md and ROADMAP.md
// are history and may name options that are gone.
func checkOptionNames(t *testing.T) {
	api, err := os.ReadFile("api/rvgo.txt")
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"README.md", "DESIGN.md", "doc.go"}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range optionName.FindAllString(string(raw), -1) {
			if !strings.Contains(string(api), "\nfunc "+name+"(") {
				t.Errorf("%s names %s, which is not in the façade's API (api/rvgo.txt)", f, name)
			}
		}
	}
}
