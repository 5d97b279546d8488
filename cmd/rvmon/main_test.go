package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const unsafeIterSpec = `UnsafeIter(Collection c, Iterator i) {
    event create(c, i)
    event update(c)
    event next(i)
    ere : update* create next* update+ next
    @match { print "violation" }
}
`

// unsafeIterTrace iterates two collections: every third iterator sees an
// update before its next (a violation), every iterator is freed after use,
// and the first collection dies halfway.
func unsafeIterTrace() string {
	var b strings.Builder
	b.WriteString("# two collections, twelve iterators\n")
	for k := 0; k < 12; k++ {
		c := fmt.Sprintf("c%d", k%2)
		if k == 6 {
			b.WriteString("free c0\n")
		}
		if k >= 6 {
			c = "c1"
		}
		fmt.Fprintf(&b, "create %s i%d\nnext i%d\n", c, k, k)
		if k%3 == 0 {
			fmt.Fprintf(&b, "update %s\n", c)
		}
		fmt.Fprintf(&b, "next i%d\nfree i%d\n", k, k)
	}
	return b.String()
}

// rvmon runs the command on a spec and trace written to files, with args.
func rvmon(t *testing.T, spec, trace string, args ...string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	specPath, tracePath := filepath.Join(dir, "u.rv"), filepath.Join(dir, "t.txt")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tracePath, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run(append([]string{"-spec", specPath, "-trace", tracePath}, args...), strings.NewReader(""), &out, &errOut)
	return out.String(), err
}

// TestShardedOutputMatchesSequential: on one spec and trace, the verdict,
// handler and -stats lines of the sequential engine and of four shards are
// the same once sorted (the shards' verdicts interleave).
func TestShardedOutputMatchesSequential(t *testing.T) {
	sorted := func(args ...string) []string {
		out, err := rvmon(t, unsafeIterSpec, unsafeIterTrace(), append([]string{"-stats"}, args...)...)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		slices.Sort(lines)
		return lines
	}
	seq := sorted()
	if n := strings.Count(strings.Join(seq, "\n"), "UnsafeIter: match"); n != 4 {
		t.Fatalf("sequential run reported %d matches, want 4:\n%s", n, strings.Join(seq, "\n"))
	}
	if sharded := sorted("-shards", "4"); !slices.Equal(seq, sharded) {
		t.Errorf("sorted output differs:\nsequential:\n%s\nshards=4:\n%s", strings.Join(seq, "\n"), strings.Join(sharded, "\n"))
	}
}

// TestMalformedTrace: a line naming an unknown event or the wrong number
// of objects, or using a freed object, is an error that names the line.
func TestMalformedTrace(t *testing.T) {
	for _, bad := range []string{"bogus c0", "create c0", "create c0 i0\nfree i0\nnext i0"} {
		_, err := rvmon(t, unsafeIterSpec, "# ok\n"+bad+"\n")
		if err == nil || !strings.Contains(err.Error(), "line ") {
			t.Errorf("trace %q: error %v, want one naming the line", bad, err)
		}
	}
}
