package gvm

import (
	"testing"

	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// TestStaleBarrierTimerDoesNotFlushNewGeneration reproduces the stale
// barrier-timeout flush: the BarrierTimeout callback passes its
// generation check and spawns the flush proc, but before that proc runs
// the original barrier completes normally AND a new generation's first
// STR arrives. Without a re-check inside the spawned proc, the stale
// timer partial-flushes the new generation — a barrier that still has
// its full timeout ahead of it.
//
// The window between the timer callback and the spawned proc is one
// scheduler step, so the test drives it white-box: it arms the real
// timer through handleSTR, then uses a same-instant calendar entry
// (scheduled later, so it runs after the timer callback but before the
// spawned proc) to perform exactly the state transition a completed
// barrier plus a fresh STR would leave behind.
func TestStaleBarrierTimerDoesNotFlushNewGeneration(t *testing.T) {
	const timeout = sim.Duration(1e6) // 1ms virtual
	env, m := newManager(t, func(c *Config) {
		c.Parties = 2
		c.BarrierTimeout = timeout
	})
	var sA, sC *session
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		open := func() *session {
			return m.sessions[OpenBare(t, p, m, Request{Spec: &task.Spec{Name: "t", InBytes: 8, OutBytes: 8}}).ID]
		}
		sA, sC = open(), open()
		// A is the lone arrival of generation 0: arms the timer.
		sA.st.phase = running
		m.handleSTR(sA)
		fireAt := p.Now().Add(timeout)
		// Schedule the surgery from a strictly later callback so its
		// calendar seq exceeds the timer's: at fireAt the engine runs
		// the timer callback first (check passes, stale flush proc
		// spawned), then this callback, then the spawned proc.
		env.After(timeout/2, func() {
			env.At(fireAt, func() {
				// Generation 0 completed normally...
				sA.st.phase = done
				m.strPending = nil
				m.strGen++
				// ...and generation 1's first STR is now pending.
				sC.st.phase = running
				m.strPending = []*session{sC}
			})
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := m.met.barrierTimeouts.Value(); n != 0 {
		t.Fatalf("stale timer flushed the new generation (BarrierTimeouts = %d)", n)
	}
	if len(m.strPending) != 1 || m.strPending[0] != sC {
		t.Fatalf("new generation's pending STR was consumed (pending = %d sessions)", len(m.strPending))
	}
	if sC.st.phase != running {
		t.Fatal("new generation's session was flushed by the stale timer")
	}
}
