package scenario

import (
	"strings"
	"testing"

	"repro/internal/params"
)

func cfg2() params.Config {
	return params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}
}

func TestBuildRejectsInvalidConfig(t *testing.T) {
	if _, err := Build(params.Config{Nodes: 1, NI: params.NI2w, Bus: params.MemoryBus}); err == nil {
		t.Fatal("1-node config should be rejected")
	}
	if _, err := Build(params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.IOBus}); err == nil {
		t.Fatal("CNI16Qm@io should be rejected")
	}
}

// TestBuildRejectsInvalidDefaultTrace: a config that is invalid only
// under the default trace spec comes back from Build as an error; the
// machine constructor would panic on it.
func TestBuildRejectsInvalidDefaultTrace(t *testing.T) {
	SetDefaultTrace(params.Trace{Enabled: true, RingSize: -1})
	defer SetDefaultTrace(params.Trace{})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Build panicked: %v", r)
		}
	}()
	if _, err := Build(cfg2()); err == nil || !strings.Contains(err.Error(), "RingSize") {
		t.Fatalf("Build under an invalid default trace: err = %v, want the RingSize error", err)
	}
}

func TestSendRecvAndTrace(t *testing.T) {
	m, err := Build(cfg2())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var got Message
	var sentAt, recvAt uint64
	sc := New().
		At(0, func(ep *Endpoint) {
			if ep.ID() != 0 {
				t.Errorf("endpoint 0 reports id %d", ep.ID())
			}
			sentAt = uint64(ep.Clock())
			ep.Send(1, 64, "hello")
		}).
		At(1, func(ep *Endpoint) {
			got = ep.Recv()
			recvAt = uint64(ep.Clock())
		})
	tr := m.Run(sc)

	if got.Src != 0 || got.Size != 64 || got.Payload != "hello" {
		t.Fatalf("received %+v", got)
	}
	if recvAt <= sentAt {
		t.Fatalf("receive at %d not after send at %d", recvAt, sentAt)
	}
	if tr.Cycles() == 0 || tr.End == 0 {
		t.Fatalf("empty trace window: %+v", tr)
	}
	if tr.Counter("net.msg") != 1 {
		t.Fatalf("net.msg delta = %d, want 1", tr.Counter("net.msg"))
	}
	if tr.Counter("net.bytes") == 0 {
		t.Fatal("no network bytes recorded")
	}
	if tr.BusOccupancy == 0 {
		t.Fatal("no memory-bus occupancy recorded")
	}
	if h := tr.Histogram("net.delivery"); h.Count() != 1 {
		t.Fatalf("net.delivery count = %d, want 1", h.Count())
	}
}

func TestHandlersAndSendTo(t *testing.T) {
	m, err := Build(cfg2())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const hEcho = 200
	pongs := 0
	m.Endpoint(1).Handle(hEcho, func(d *Delivery) {
		// Reply from inside the handler, at the receiver's cost.
		d.EP.Compute(10)
		d.EP.SendTo(d.Src, hEcho+1, d.Size, nil)
	})
	m.Endpoint(0).Handle(hEcho+1, func(d *Delivery) { pongs++ })
	done := false
	sc := New().
		At(0, func(ep *Endpoint) {
			for i := 0; i < 3; i++ {
				ep.SendTo(1, hEcho, 32, nil)
				want := i + 1
				ep.PollUntil(func() bool { return pongs == want })
			}
			done = true
		}).
		At(1, func(ep *Endpoint) {
			ep.PollUntil(func() bool { return done })
		})
	m.Run(sc)
	if pongs != 3 {
		t.Fatalf("pongs = %d, want 3", pongs)
	}
}

// TestTrySendBackpressure fills a shallow NI without draining the far
// side: TrySend must eventually refuse instead of deadlocking the
// sender, and everything sent before the refusal must still arrive.
func TestTrySendBackpressure(t *testing.T) {
	cfg := params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	accepted := 0
	drained := 0
	sc := New().
		At(0, func(ep *Endpoint) {
			// The NI2w FIFO holds two messages and node 1 is not
			// draining yet, so refusals must appear well before 64.
			for i := 0; i < 64; i++ {
				if !ep.TrySend(1, 100, i) {
					break
				}
				accepted++
			}
		}).
		At(1, func(ep *Endpoint) {
			ep.Compute(500_000) // stay silent until node 0 gives up
			for {
				if _, ok := ep.TryRecv(); ok {
					drained++
					continue
				}
				break
			}
		})
	m.Run(sc)
	if accepted == 0 || accepted >= 64 {
		t.Fatalf("accepted %d sends; want backpressure between 1 and 63", accepted)
	}
	if drained != accepted {
		t.Fatalf("drained %d != accepted %d", drained, accepted)
	}
	if m.Endpoint(0).Sent() != uint64(accepted) {
		t.Fatalf("Sent() = %d, want %d", m.Endpoint(0).Sent(), accepted)
	}
}

func TestSequentialRunsAccumulateTime(t *testing.T) {
	m, err := Build(cfg2())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ping := func(ep *Endpoint) { ep.Send(1, 16, nil) }
	pong := func(ep *Endpoint) { ep.Recv() }
	tr1 := m.Run(New().At(0, ping).At(1, pong))
	tr2 := m.Run(New().At(0, ping).At(1, pong))
	if tr2.Start != tr1.End {
		t.Fatalf("second run starts at %d, first ended at %d", tr2.Start, tr1.End)
	}
	if tr2.Counter("net.msg") != 1 {
		t.Fatalf("second run's net.msg delta = %d, want 1 (deltas must not accumulate)", tr2.Counter("net.msg"))
	}
	// Histograms are per-run too: the second run's delivery histogram
	// holds only its own sample.
	if h := tr2.Histogram("net.delivery"); h.Count() != 1 {
		t.Fatalf("second run's net.delivery count = %d, want 1", h.Count())
	}
}

func TestRunRejectsBadScenarios(t *testing.T) {
	m, err := Build(cfg2())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	expectPanic := func(name, want string, sc *Scenario) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
				t.Errorf("%s: panic %v does not mention %q", name, r, want)
			}
		}()
		m.Run(sc)
	}
	expectPanic("out of range", "out of range", New().At(7, func(*Endpoint) {}))
	expectPanic("duplicate", "two programs", New().At(0, func(*Endpoint) {}).At(0, func(*Endpoint) {}))
}

// TestHandleRejectsInboxID pins that a user cannot clobber the
// reserved inbox registration (that would silently hang every Recv).
func TestHandleRejectsInboxID(t *testing.T) {
	m, err := Build(cfg2())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "reserved") {
			t.Errorf("Handle(inboxHandler) panic = %v, want a reserved-id message", r)
		}
	}()
	m.Endpoint(0).Handle(inboxHandler, func(*Delivery) {})
}
