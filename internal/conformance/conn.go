package conformance

import (
	"net"
	"sync/atomic"
	"time"

	"rvgo/internal/metrics"
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
