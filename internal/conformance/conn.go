package conformance

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rvgo/internal/metrics"
	"rvgo/internal/monitor"
)

// WriteBlock and WriteLinger mirror the wire producer's fixed write-block
// size and linger deadline, for the tests that hold a session to them from
// the outside.
const (
	WriteBlock  = 4 << 10
	WriteLinger = time.Millisecond
)

// CountingConn counts the write(2)s a session issues: every Write on it is
// one, since the wire layer hands the connection whole buffers.
type CountingConn struct {
	net.Conn
	writes atomic.Int64
	bytes  atomic.Int64
}

// Write implements net.Conn.
func (c *CountingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	c.bytes.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// Reset zeroes the counts (after the handshake, say).
func (c *CountingConn) Reset() {
	c.writes.Store(0)
	c.bytes.Store(0)
}

// Counts returns the writes and bytes since the last Reset.
func (c *CountingConn) Counts() (writes, bytes int64) {
	return c.writes.Load(), c.bytes.Load()
}

// WriteBudget is the most writes a producer may have used for the given
// bytes under the block policy: one per full block, one for the tail, and
// one per linger period that elapsed while it was producing — a slow
// machine lets the deadline fire mid-stream, which is the policy working,
// not failing.
func WriteBudget(bytes int64, elapsed time.Duration) int64 {
	return (bytes+WriteBlock-1)/WriteBlock + 1 + int64(elapsed/WriteLinger)
}

// CounterSum sums the named family's series in reg (a counter summed over
// its tenants).
func CounterSum(reg *metrics.Registry, name string) float64 {
	var v float64
	for _, f := range reg.Snapshot() {
		if f.Name == name {
			for _, s := range f.Series {
				v += s.Value
			}
		}
	}
	return v
}

// SinkConn is the peer of an allocation test: it says its greeting — the
// HelloAck that opens the session and grants the window — then discards
// every write and says nothing more until closed, so whatever a client's
// Dispatch allocates, the client allocated. (The greeting arrives encoded:
// this package cannot import the codec its own tests import this for.)
type SinkConn struct {
	net.Conn // nil: only Read, Write and Close are ever called
	greeting bytes.Reader
	once     sync.Once
	closed   chan struct{}
}

// NewSinkConn builds a SinkConn.
func NewSinkConn(greeting []byte) *SinkConn {
	c := &SinkConn{closed: make(chan struct{})}
	c.greeting.Reset(greeting)
	return c
}

// Read implements net.Conn: the greeting, then nothing until Close.
func (c *SinkConn) Read(b []byte) (int, error) {
	if c.greeting.Len() > 0 {
		return c.greeting.Read(b)
	}
	<-c.closed
	return 0, io.EOF
}

// Write implements net.Conn.
func (c *SinkConn) Write(b []byte) (int, error) { return len(b), nil }

// Close implements net.Conn.
func (c *SinkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// DistinctStats returns a monitor.Stats whose every field holds its own
// non-zero value, 100 + the field's index, set by reflection: the tests
// that hold the Stats conversions and merges to "every counter" cover a
// counter added later without anyone remembering them.
func DistinctStats(t testing.TB) monitor.Stats {
	t.Helper()
	var st monitor.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		case reflect.Int64:
			f.SetInt(int64(100 + i))
		default:
			t.Fatalf("monitor.Stats.%s is a %s: teach Merge, the wire Stats frame and this helper about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}
