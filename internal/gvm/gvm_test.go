package gvm

import (
	"testing"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"

	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

func newManager(t *testing.T, mut func(*Config)) (*sim.Env, *Manager) {
	t.Helper()
	env := sim.NewEnv()
	dev := gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})
	cfg := Config{Device: dev}
	if mut != nil {
		mut(&cfg)
	}
	m := New(env, cfg)
	m.Start()
	return env, m
}

func TestVerbAndStatusStrings(t *testing.T) {
	if REQ.String() != "REQ" || RLS.String() != "RLS" {
		t.Fatal("verb names wrong")
	}
	if Verb(99).String() == "" {
		t.Fatal("out-of-range verb has empty name")
	}
	if ACK.String() != "ACK" || WAIT.String() != "WAIT" || ERR.String() != "ERR" {
		t.Fatal("status names wrong")
	}
}

func TestNewRequiresDevice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a nil device")
		}
	}()
	New(sim.NewEnv(), Config{})
}

func TestManagerInitializationPaysTinitOnce(t *testing.T) {
	env, m := newManager(t, nil)
	var readyAt sim.Time = -1
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		readyAt = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	arch := m.Device().Arch()
	want := sim.Time(arch.DeviceInitCost + arch.ContextCreateCost)
	if readyAt != want {
		t.Fatalf("manager ready at %v, want %v (one context only)", readyAt, want)
	}
}

func TestREQWithoutSpecErrors(t *testing.T) {
	env, m := newManager(t, nil)
	var err error
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		_, err = m.OpenSession(p, Request{})
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("OpenSession accepted a REQ without a Spec")
	}
	if m.met.openSessions.Value() != 0 {
		t.Fatalf("OpenSessions = %d after the refused REQ", m.met.openSessions.Value())
	}
}

func TestUnknownSessionDropped(t *testing.T) {
	env, m := newManager(t, nil)
	var err error
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		// SND against a session that does not exist: refused to the caller
		// (a front-end answers its client; vgpu's
		// TestUnknownSessionAnswered) and dropped, nothing served.
		err = m.DirectVerb(12345, SND)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("DirectVerb served a session that does not exist")
	}
	if m.met.requests.Value() != 0 {
		t.Fatalf("Requests = %d, the dropped verb was counted as served", m.met.requests.Value())
	}
}

func TestUnknownVerbErrors(t *testing.T) {
	env, m := newManager(t, nil)
	var err error
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		b := OpenBare(t, p, m, Request{Spec: &task.Spec{Name: "t", InBytes: 8, OutBytes: 8}})
		err = m.DirectVerb(b.ID, Verb(42))
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("DirectVerb accepted an unknown verb")
	}
}

func TestHostCopyTime(t *testing.T) {
	_, m := newManager(t, nil)
	if got := m.HostCopyTime(24e9); got != sim.Second {
		t.Fatalf("HostCopyTime(24GB @ 24GB/s) = %v, want 1s", got)
	}
	if got := m.HostCopyTime(24e6); got != sim.Millisecond {
		t.Fatalf("HostCopyTime(24MB @ 24GB/s) = %v, want 1ms", got)
	}
	if m.HostCopyTime(0) != 0 || m.HostCopyTime(-5) != 0 {
		t.Fatal("non-positive sizes should cost nothing")
	}
}

func TestSessionAccounting(t *testing.T) {
	env, m := newManager(t, nil)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		b := OpenBare(t, p, m, Request{Spec: &task.Spec{Name: "t", InBytes: 64, OutBytes: 64}})
		if m.met.openSessions.Value() != 1 {
			t.Errorf("OpenSessions = %d", m.met.openSessions.Value())
		}
		if st, msg := b.Verb(p, RLS); st != ACK {
			t.Errorf("RLS: %v %s", st, msg)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if m.SessionsOpened() != 1 || m.met.sessionsClosed.Value() != 1 || m.met.openSessions.Value() != 0 {
		t.Fatalf("accounting: opened=%d closed=%d live=%d",
			m.SessionsOpened(), m.met.sessionsClosed.Value(), m.met.openSessions.Value())
	}
}

// TestZeroConfigStagesPinned: the zero Config is the paper's design. One
// timing-only vecadd(2^20) cycle on the bare engine is cheaper than with
// PageableStaging by exactly the PCIe gap, pageable minus pinned, of its
// 8 MiB H2D and 4 MiB D2H.
func TestZeroConfigStagesPinned(t *testing.T) {
	spec := workloads.VectorAdd(1 << 20).Spec(0)
	cycle := func(mut func(*Config)) sim.Duration {
		env, m := newManager(t, mut)
		var d sim.Duration
		env.Go(func(p *sim.Proc) {
			p.Wait(m.Ready())
			b := OpenBare(t, p, m, Request{Spec: spec})
			t0 := p.Now()
			b.run(p, nil, RCV)
			d = p.Now().Sub(t0)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	pinned := cycle(nil)
	pageable := cycle(func(c *Config) { c.PageableStaging = true })
	arch := fermi.TeslaC2070()
	gap := arch.TransferTime(spec.InBytes, true, false) - arch.TransferTime(spec.InBytes, true, true) +
		arch.TransferTime(spec.OutBytes, false, false) - arch.TransferTime(spec.OutBytes, false, true)
	if pageable-pinned != gap {
		t.Fatalf("cycle with pageable staging %v, zero Config %v: gap %v, want the PCIe pageable-pinned gap %v",
			pageable, pinned, pageable-pinned, gap)
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.Parties != 1 {
		t.Fatalf("Parties default = %d", c.Parties)
	}
}
