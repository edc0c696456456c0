package vgpu

import (
	"strings"
	"testing"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

func TestQueueSendRecvLatency(t *testing.T) {
	env := sim.NewEnv()
	q := newMqueue[string](env, 50*sim.Microsecond)
	var recvAt sim.Time
	var got string
	env.Go(func(p *sim.Proc) {
		q.send(p, "msg") // pays one hop on the sender
	})
	env.Go(func(p *sim.Proc) {
		got = q.recv(p) // pays one hop on the receiver
		recvAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "msg" {
		t.Fatalf("got %q", got)
	}
	if recvAt != sim.Time(100*sim.Microsecond) {
		t.Fatalf("received at %v, want 100us (two hops)", recvAt)
	}
}

func TestQueueFIFOOrdering(t *testing.T) {
	env := sim.NewEnv()
	q := newMqueue[int](env, sim.Microsecond)
	var got []int
	env.Go(func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			q.send(p, i)
		}
	})
	env.Go(func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, q.recv(p))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v", got)
		}
	}
}

// TestREQPaysFourHops is the front-end's hop accounting: a REQ costs the
// engine's resource setup plus a request and a reply, each a hop on the
// sender's and a hop on the receiver's clock — 20 us apiece by default.
func TestREQPaysFourHops(t *testing.T) {
	for _, c := range []struct{ set, want sim.Duration }{
		{0, 20 * sim.Microsecond},
		{50 * sim.Microsecond, 50 * sim.Microsecond},
	} {
		env, _, mgr := newManager(t, false, 1, nil)
		host := Serve(mgr, Config{MsgLatency: c.set})
		var took sim.Duration
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			t0 := p.Now()
			if _, err := host.Connect(p, vecSpec(64)); err != nil {
				t.Error(err)
			}
			took = p.Now().Sub(t0)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if want := 300*sim.Microsecond + 4*c.want; took != want {
			t.Errorf("MsgLatency %v: REQ took %v, want %v (setup + 4 hops of %v)", c.set, took, want, c.want)
		}
	}
}

// TestUnknownSessionAnswered: a verb naming no live session (here a handle
// used after its release) is answered, retryably, instead of parking its
// sender forever.
func TestUnknownSessionAnswered(t *testing.T) {
	env, _, mgr, host := newRig(t, false, 1, nil)
	var err error
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, cerr := host.Connect(p, vecSpec(64))
		if cerr != nil {
			t.Error(cerr)
			return
		}
		if rerr := v.Release(p); rerr != nil {
			t.Error(rerr)
		}
		err = v.SendInput(p, nil)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil || !strings.Contains(err.Error(), "unknown session") || !gvm.IsRetryable(err.Error()) {
		t.Fatalf("SND on a released handle: %v, want a retryable unknown-session error", err)
	}
}

// TestREQFailureReleasesSession: a REQ the engine opened but whose staging
// it then refuses to bind (a spec with a negative size reaches BindDirect,
// which holds staging to the spec) answers ERR and leaves nothing behind.
func TestREQFailureReleasesSession(t *testing.T) {
	reg := metrics.NewRegistry()
	env, dev, mgr, host := newRig(t, true, 1, func(c *gvm.Config) { c.Metrics = reg })
	var err error
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		_, err = host.Connect(p, &task.Spec{Name: "bad", InBytes: -8, OutBytes: 16})
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil || !strings.Contains(err.Error(), "BindDirect") {
		t.Fatalf("Connect: %v, want the bind's refusal", err)
	}
	if gvmCount(t, reg, mgr, "gvm_open_sessions") != 0 || dev.MemReserved() != 0 || dev.MemInUse() != 0 {
		t.Fatalf("refused REQ left %d sessions, %d bytes reserved, %d in use",
			gvmCount(t, reg, mgr, "gvm_open_sessions"), dev.MemReserved(), dev.MemInUse())
	}
}

// TestFrontEndCostClosedForm: the daemon's engine is the paper's GVM minus
// the simulated transport, as an equation. One cycle of one timing-only
// session through the front-end costs, over the same cycle on the bare
// engine, exactly 12 hops and the client's two segment copies: 4 verbs x 4
// hops, of which STR's reply and STP's request (2 hops each) hide behind the
// flush they overlap.
func TestFrontEndCostClosedForm(t *testing.T) {
	spec := workloads.VectorAdd(1 << 20).Spec(0)
	const hop = 20 * sim.Microsecond

	env, _, mgr := newManager(t, false, 1, nil)
	host := Serve(mgr, Config{MsgLatency: hop, BlockingSTP: true})
	var through sim.Duration
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, spec)
		if err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		if err := v.RunCycle(p, nil, nil); err != nil {
			t.Error(err)
		}
		through = p.Now().Sub(t0)
		if v.Polls != 1 {
			t.Errorf("blocking STP polled %d times", v.Polls)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	env, _, twin := newManager(t, false, 1, nil)
	var bare sim.Duration
	env.Go(func(p *sim.Proc) {
		p.Wait(twin.Ready())
		id, err := twin.OpenSession(p, gvm.Request{Spec: spec})
		if err != nil {
			t.Error(err)
			return
		}
		var outcome *sim.Event
		if err := twin.BindDirect(id, nil, nil, func(v gvm.Verb, st gvm.Status, msg string) {
			if st != gvm.ACK {
				t.Errorf("%v: %v %s", v, st, msg)
			}
			outcome.Fire(nil)
		}); err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		for _, v := range []gvm.Verb{gvm.SND, gvm.STR, gvm.STP, gvm.RCV} {
			outcome = env.NewEvent()
			if err := twin.DirectVerb(id, v); err != nil {
				t.Error(err)
				return
			}
			p.Wait(outcome)
		}
		bare = p.Now().Sub(t0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	want := 12*hop + mgr.HostCopyTime(spec.InBytes) + mgr.HostCopyTime(spec.OutBytes)
	if through-bare != want {
		t.Fatalf("cycle through vgpu %v, bare %v: front-end cost %v, want 12 hops + two segment copies = %v",
			through, bare, through-bare, want)
	}
}
