package gvm

import (
	"fmt"
	"testing"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// TestRestoreBlockedByParkedBarrierIsRetryable pins the
// restoreWithBackoff give-up audit (the failover restore path made it
// load-bearing): when an evicted session's transparent restore cannot
// fit because the memory is pinned by sessions parked at the STR
// barrier with no timeout armed, sleeping on the owner loop can never
// help — the peer STR that would complete the barrier is queued BEHIND
// the verb being served. Pre-fix the restore burned the full 60 virtual
// seconds of backoff and then surfaced a plain (non-retryable) OOM
// error; the client gave up even though serving the queued STR would
// have freed the memory within one round trip. Post-fix the verb
// answers immediately with a retryable error, the queued STR completes
// the barrier, and the re-issued verb restores cleanly.
func TestRestoreBlockedByParkedBarrierIsRetryable(t *testing.T) {
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 256 << 10 // A(120K) + C(8K) + D(100K) fit; B(100K) cannot join
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch})
	m := New(env, Config{Device: dev, Parties: 3, BarrierTimeout: 0, QuotaBytes: 1 << 30})
	m.Start()

	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		a := openKB(t, p, m, "A", 120, 5)
		c := openKB(t, p, m, "C", 8, 5)
		b := openKB(t, p, m, "B", 100, 0) // lowest priority: the eviction victim
		// D's arenas cannot fit alongside A+C+B: the evictor picks idle,
		// priority-0 B and snapshots it to the host.
		d := openKB(t, p, m, "D", 100, 5)
		if m.met.evictions.Value() != 1 {
			t.Errorf("evictions = %d, want 1 (B evicted by D's REQ)", m.met.evictions.Value())
		}

		// A and D park at the 3-party barrier: running, resident, and not
		// evictable. Their acks arrive only with the flush.
		a.issue(STR)
		d.issue(STR)

		// B's SND must transparently restore 100K, but only ~28K is free
		// and the parked barrier pins the rest. No timeout is armed, so
		// the only way forward is the peer STR the front-end has not
		// issued yet.
		before := p.Now()
		st, msg := b.Verb(p, SND)
		if st != ERR {
			t.Fatalf("SND on barrier-blocked restore: status %v, want ERR", st)
		}
		if !IsRetryable(msg) {
			t.Fatalf("SND error not retryable: %q", msg)
		}
		if waited := sim.Duration(p.Now() - before); waited > sim.Second {
			t.Fatalf("blocked restore burned %v of virtual backoff before giving up", waited)
		}

		// The peer: C's STR completes the barrier (C was evicted by B's
		// failed restore attempt and is restored by its own gate), the
		// generation flushes, and everyone goes idle — evictable.
		if st, msg := c.Verb(p, STR); st != ACK {
			t.Fatalf("barrier-completing STR: %v %s", st, msg)
		}

		// The client's retry now restores B by evicting idle sessions.
		if st, msg := b.Verb(p, SND); st != ACK {
			t.Fatalf("retried SND after barrier drained: %v %s", st, msg)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// openKB opens a kernel-less session of kb KiB split evenly over input and
// output.
func openKB(t *testing.T, p *sim.Proc, m *Manager, name string, kb int64, prio int) *BareSession {
	return OpenBare(t, p, m, Request{
		Spec:     &task.Spec{Name: name, InBytes: kb << 10 / 2, OutBytes: kb << 10 / 2},
		Priority: prio})
}

// TestRestoreWaitsOutRunningFlush pins the progressCalendar arm: when
// the pinning session is mid-flush (launched, not parked), its
// completion is a calendar event, so the restore must back off and
// succeed within the window rather than surfacing any error at all.
func TestRestoreWaitsOutRunningFlush(t *testing.T) {
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 256 << 10
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch})
	m := New(env, Config{Device: dev, Parties: 1, BarrierTimeout: 0, QuotaBytes: 1 << 30})
	m.Start()

	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		a := openKB(t, p, m, "A", 160, 5)
		b := openKB(t, p, m, "B", 100, 0)
		if m.met.evictions.Value() != 1 {
			t.Errorf("evictions = %d, want 1 (A's REQ evicts nothing, B 100K forces A out? no — B is the victim)", m.met.evictions.Value())
		}
		// B was evicted by its own REQ? No: A 160K + B 100K > 256K, so B's
		// REQ evicts idle A instead (A has priority 5 but is the only
		// victim). Restore A via its STR gate, which in turn evicts B.
		if st, msg := a.Verb(p, STR); st != ACK {
			t.Fatalf("STR on the evicted session: %v %s", st, msg)
		}
		// Parties=1: A's STR flushed as soon as A was restored; A is
		// running, resident. B's SND must wait out A's flush
		// (progressCalendar), then restore by evicting the now-idle A. No
		// error may surface.
		if st, msg := b.Verb(p, SND); st != ACK {
			t.Fatalf("SND during running flush: %v %s", st, msg)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedDaemonRestoresEvictOnTheirOwnProcess is the regression
// test for the manager's former "current process" variable: two evicted
// sessions take a verb in the same instant, so their transparent
// restores run on two transient processes that interleave across every
// virtual sleep, and each restore needs several evictions. The allocator's
// evictor must charge each evacuation on the process that is actually
// inside Malloc — sim.Env.Current — or it sleeps a parked process from the
// wrong goroutine (or finds none and refuses).
func TestInterleavedDaemonRestoresEvictOnTheirOwnProcess(t *testing.T) {
	// One buffer per session, a big one exactly three small ones long: the
	// copy engine evacuates victims in the order they were picked, so the
	// freed spans coalesce and no restore has to evict the other's arena.
	const (
		big    = 18 << 10
		small  = 6 << 10
		smalls = 6
	)
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	// Two big arenas, or six small ones, fill the card exactly (the
	// allocator keeps its first alignment unit to itself).
	arch.MemBytes = 2*big + 256
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch})
	m := New(env, Config{Device: dev, QuotaBytes: 1 << 30})
	m.Start()

	type outcome struct {
		st  Status
		msg string
		at  sim.Time
	}
	acks := map[int]*outcome{}
	open := func(p *sim.Proc, name string, in int64) int {
		id, err := m.OpenSession(p, Request{Spec: &task.Spec{Name: name, InBytes: in}})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		o := &outcome{}
		acks[id] = o
		if err := m.BindDirect(id, nil, nil, func(_ Verb, st Status, msg string) {
			*o = outcome{st, msg, env.Now()}
		}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	var b1, b2 int
	var issued sim.Time
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		b1 = open(p, "big1", big)
		b2 = open(p, "big2", big)
		for i := 0; i < smalls; i++ {
			open(p, fmt.Sprintf("small%d", i), small)
		}
		if m.met.evictions.Value() != 2 {
			t.Fatalf("evictions after setup = %d, want 2 (both bigs paged out)", m.met.evictions.Value())
		}
		// The bigs' verbs must be younger than the last open, or LRU's id
		// tie-break would pick a just-restored big over a small.
		p.Sleep(sim.Microsecond)
		// Same instant, no drain in between: the two restores overlap.
		issued = p.Now()
		for _, id := range []int{b1, b2} {
			if err := m.DirectVerb(id, SND); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{b1, b2} {
		if o := acks[id]; o.st != ACK || o.at <= issued {
			t.Errorf("session %d SND: %v %q at %v (issued %v)", id, o.st, o.msg, o.at, issued)
		}
		if s := m.sessions[id]; s.susp != nil || s.devIn == 0 {
			t.Errorf("session %d not resident after its restore", id)
		}
	}
	// Each big arena needs three victims' worth of contiguous room: every
	// small session goes, none twice.
	if got := m.met.evictions.Value(); got != 2+smalls {
		t.Errorf("evictions = %d, want %d", got, 2+smalls)
	}
	if got := m.met.restores.Value(); got != 2 {
		t.Errorf("restores = %d, want 2", got)
	}
	// Evacuating three victims and refilling the arena takes PCIe time on
	// the restoring process's own clock; a restore that charged its
	// evacuations elsewhere would ack after its refill alone.
	arenaCopy := arch.TransferTime(big, true, true)
	for _, id := range []int{b1, b2} {
		if waited := sim.Duration(acks[id].at - issued); waited < 2*arenaCopy {
			t.Errorf("session %d acked %v after issue, under two arena copies (%v): evacuations not on its clock", id, waited, 2*arenaCopy)
		}
	}
}
