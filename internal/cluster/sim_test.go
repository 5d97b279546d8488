//go:build goexperiment.synctest

package cluster_test

import (
	"fmt"
	"net"
	"testing"
	"testing/synctest"
	"time"

	"rvgo/internal/cluster"
	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/server"
)

// TestSimIdleProducerTimeliness is TestClusterIdleProducerTimeliness's
// events-only case on the synthetic clock of a testing/synctest bubble:
// two in-process servers dialled over net.Pipe, so no time passes but the
// clock's. The three events wait in their slot link's write block until
// the linger deadline armed by the first of them; the slot's session
// applies them and its verdict comes back at that same instant. So the
// verdict must come exactly one linger (conformance.WriteLinger) after the
// producer's last call, and not before. It needs the synctest experiment:
//
//	GOEXPERIMENT=synctest go test -race -count=20 -run Sim ./internal/cluster
func TestSimIdleProducerTimeliness(t *testing.T) {
	synctest.Run(func() {
		nodes := map[string]*conformance.PipeListener{}
		var srvs []*server.Server
		for _, name := range []string{"n1", "n2"} {
			l := conformance.NewPipeListener(name)
			srv := server.New(server.Options{})
			go srv.Serve(l)
			nodes[name], srvs = l, append(srvs, srv)
		}
		defer func() {
			for _, srv := range srvs {
				srv.Shutdown(time.Second)
			}
		}()
		verdict := make(chan time.Time, 1)
		c, err := cluster.Open(cluster.Options{
			Prop: "HasNext", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
			Nodes: []string{"n1", "n2"},
			Dial: func(addr string) (net.Conn, error) {
				l := nodes[addr]
				if l == nil {
					return nil, fmt.Errorf("unknown node %q", addr)
				}
				return l.Dial()
			},
			OnVerdict: func(monitor.Verdict) {
				select {
				case verdict <- time.Now():
				default:
				}
			},
		})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		it := heap.New().Alloc("i")
		for _, ev := range []string{"hasnexttrue", "next", "next"} {
			if err := monitor.EmitNamed(c, ev, it); err != nil {
				t.Error(err)
				return
			}
		}
		last := time.Now()
		time.Sleep(conformance.WriteLinger - time.Nanosecond)
		synctest.Wait()
		select {
		case at := <-verdict:
			t.Errorf("the verdict came %v after the last call, before the %v linger deadline", at.Sub(last), conformance.WriteLinger)
			return
		default:
		}
		time.Sleep(time.Nanosecond)
		synctest.Wait()
		select {
		case at := <-verdict:
			if d := at.Sub(last); d != conformance.WriteLinger {
				t.Errorf("the verdict came %v after the last call, want exactly the %v linger", d, conformance.WriteLinger)
			}
		default:
			t.Errorf("no verdict at the %v linger deadline", conformance.WriteLinger)
		}
	})
}
