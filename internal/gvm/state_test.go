package gvm

import (
	"strings"
	"testing"

	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

// A session's state is its phase and its residency (gvm.go): evicting the
// arena must keep the phase. These tests pin what a client sees, and the
// name gvm gives the state.

// expectErr issues v and wants an ERR whose text holds sub.
func expectErr(t *testing.T, p *sim.Proc, b *BareSession, v Verb, sub string) {
	t.Helper()
	if st, msg := b.Verb(p, v); st != ERR || !strings.Contains(msg, sub) {
		t.Errorf("%v answered %v %q, want ERR %q", v, st, msg, sub)
	}
}

// TestEvictedIdleStaysIdle: an idle session that never ran, evicted, is
// restored transparently by its next verb and is idle again — not done —
// so RCV still has nothing to return.
func TestEvictedIdleStaysIdle(t *testing.T) {
	spec := workloads.VectorAdd(SurfaceTestN).Spec(0)
	env, dev, m := swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		m.InjectEvicted(p, sf.ID)
		expectErr(t, p, sf, RCV, "RCV before completion")
		if m.met.restores.Value() != 1 || dev.MemInUse() == 0 {
			t.Errorf("RCV restored %d times, %d bytes resident; want the arena back", m.met.restores.Value(), dev.MemInUse())
		}
		expectErr(t, p, sf, STP, "STP before STR")
		if got := m.StateOf(sf.ID); got != "idle" {
			t.Errorf("state after the restore: %s, want idle", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictedRerunRestoresAsRerun: an evicted session whose interrupted
// cycle is still owed owes it once restored — STP restores the arena and
// replays the cycle, and RCV returns its results.
func TestEvictedRerunRestoresAsRerun(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	env, dev, m := swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		sf.run(p, input, SND)
		m.InjectRerun(sf.ID)
		m.InjectEvicted(p, sf.ID)
		if got := m.StateOf(sf.ID); got != "evicted" || dev.MemInUse() != 0 {
			t.Fatalf("after the eviction: %s with %d bytes resident, want evicted with none", got, dev.MemInUse())
		}
		sf.must(p, STP)
		if m.met.restores.Value() != 1 {
			t.Errorf("STP restored %d times, want 1", m.met.restores.Value())
		}
		sf.must(p, RCV)
		if err := w.Check(0, sf.Out); err != nil {
			t.Errorf("RCV of the replayed cycle: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedCycleStaysBehindAMove: the kernel's error an abandoned
// session answers belongs to its cycle, which a move does not carry — the
// session leaves idle, as a MIG blob, whose state byte has no such phase,
// would say anyway.
func TestAbandonedCycleStaysBehindAMove(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	env, _, m := swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		sf.run(p, input, SND)
		m.InjectAbandoned(sf.ID)
		expectErr(t, p, sf, STP, KernelErr)
		ext, err := m.ExtractSession(p, sf.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := ext.State(); got != "idle" {
			t.Errorf("an abandoned session leaves %s, want idle", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
