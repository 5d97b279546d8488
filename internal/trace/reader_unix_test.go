//go:build unix

package trace

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"rvgo/internal/props"
)

// TestOpenRejectsNonRegularFile: the Reader reads segments back with
// ReadAt, which a pipe cannot serve, and sizes its pass over the file by
// its stat size, which a pipe reports as 0. Open must refuse a FIFO
// carrying a valid trace, and a directory, rather than return an empty
// trace.
func TestOpenRejectsNonRegularFile(t *testing.T) {
	spec, err := props.Build("HasNext")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "t.rvt")
	record(t, src, spec, genHasNext(t, spec, 3, 4), 4)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		// Opening a FIFO for writing blocks until Open opens it for
		// reading; the write then fails or succeeds as the reader leaves.
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			done <- err
			return
		}
		w.Write(data)
		done <- w.Close()
	}()
	if _, err := Open(fifo); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("Open(fifo) = %v, want a not-a-regular-file error", err)
	}
	<-done
	if _, err := Open(dir); err == nil {
		t.Error("Open(directory) succeeded")
	}
}
