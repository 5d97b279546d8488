//go:build goexperiment.synctest

package remote_test

import (
	"testing"
	"testing/synctest"
	"time"

	"rvgo/internal/conformance"
	"rvgo/internal/heap"
	"rvgo/internal/monitor"
	"rvgo/internal/remote"
	"rvgo/internal/server"
)

// TestSimIdleProducerTimeliness is TestIdleProducerTimeliness on the
// synthetic clock of a testing/synctest bubble: an in-process server
// reached over net.Pipe (conformance.PipeListener), so no time passes but
// the clock's. The three events, and the free after them, wait in the
// client's write block until the linger deadline armed by the first of
// them; the session applies them and the verdict comes back at that same
// instant. So the verdict, and the server's count of the free, must come
// exactly one linger (conformance.WriteLinger) after the producer's last
// call, and not before. It needs the synctest experiment:
//
//	GOEXPERIMENT=synctest go test -race -count=20 -run Sim ./internal/remote
func TestSimIdleProducerTimeliness(t *testing.T) {
	for _, withFree := range []bool{false, true} {
		name := "events only"
		if withFree {
			name = "events and a free"
		}
		t.Run(name, func(t *testing.T) {
			synctest.Run(func() { simIdleProducer(t, withFree) })
		})
	}
}

func simIdleProducer(t *testing.T, withFree bool) {
	l := conformance.NewPipeListener("server")
	srv := server.New(server.Options{})
	go srv.Serve(l)
	defer srv.Shutdown(time.Second)
	conn, err := l.Dial()
	if err != nil {
		t.Error(err)
		return
	}
	verdict := make(chan time.Time, 1)
	cl, err := remote.NewSession(conn, remote.Options{
		Prop: "HasNext", GC: monitor.GCCoenable, Creation: monitor.CreateEnable,
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
	defer cl.Close()
	frees := func() float64 { return conformance.CounterSum(srv.Metrics(), "rv_server_frees_total") }
	it := heap.New().Alloc("i")
	for _, ev := range []string{"hasnexttrue", "next", "next"} {
		if err := monitor.EmitNamed(cl, ev, it); err != nil {
			t.Error(err)
			return
		}
	}
	if withFree {
		cl.Free(it)
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
	if n := frees(); n != 0 {
		t.Errorf("the server counted %v frees before the %v linger deadline", n, conformance.WriteLinger)
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
	want := 0.0
	if withFree {
		want = 1
	}
	if n := frees(); n != want {
		t.Errorf("the server counted %v frees at the %v linger deadline, want %v", n, conformance.WriteLinger, want)
	}
}
