package gvm

import (
	"fmt"
	"log/slog"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
)

// The residency layer: when an allocation cannot fit, the allocator's
// evictor callback evicts the least-valuable idle session (lowest priority,
// then LRU) — its device buffers go to a host snapshot — and retries, and the
// victim's arena is restored transparently on its next SND/STR/RCV. A
// session's logical reservation (devBytes) survives eviction — "admitted" no
// longer implies "resident". Eviction is the only way an arena leaves the
// card: the client never asks for it, and extraction (failover.go) is an
// eviction whose snapshot leaves the manager.
//
// A swap moves ownership, not bytes: the simulated device's memory is host
// memory already, so an evacuation (gpusim.Context.SwapOut) hands each
// allocation's backing store to the snapshot and a restore (SwapIn) hands
// it back. The virtual clock still charges the full PCIe transfer both
// ways, and whoever allocates the freed placement meanwhile gets fresh
// zeroed memory at an address of its own, never the evicted tenant's bytes.
// The session keeps its device addresses across the eviction, so its
// kernels and prepared flush ops stay valid and a restore only puts its
// buffers back on the card. The snapshot keeps its slices until the session
// is resident again, so a restore that fails part-way only takes back off
// the card what it placed and stays retryable.

// snapshot is an evicted session's saved device state: the backing store
// its input arena and each scratch buffer had on a functional device (nil
// on a timing-only one; the output arena is its staging), and each scratch
// buffer's rounded size. Each session has one (session.snap), reused by
// every eviction; a restored one lets go of its slices, so it never
// aliases live device memory.
type snapshot struct {
	in       []byte
	scratch  [][]byte
	scrSizes []int64
	total    int64
	// moving is true while an evacuation or a restore is still copying
	// between the arena and this snapshot. The copies sleep in virtual
	// time, so other owner-side processes (a second restore, a front-end's
	// loop, a migration) run meanwhile; to them the session is neither
	// resident — its buffers are leaving the card, or are not all back —
	// nor restorable, and they wait for settled (waitSettled).
	moving  bool
	settled *sim.Event
}

// begin opens a copy window on sn.
func (sn *snapshot) begin(env *sim.Env) {
	if sn.settled == nil {
		sn.settled = env.NewEvent()
	} else {
		sn.settled.Reset()
	}
	sn.moving = true
}

// settle ends the copy window opened on sn.
func (sn *snapshot) settle() {
	sn.moving = false
	sn.settled.Fire(nil)
}

// waitSettled waits until no evacuation or restore of s is in flight.
func (m *Manager) waitSettled(p *sim.Proc, s *session) {
	for s.susp != nil && s.susp.moving {
		p.Wait(s.susp.settled)
	}
}

// suspendSession evacuates the session's device buffers into its snapshot
// and takes them off the card (resident bytes drop; the logical reservation
// and the addresses stay), leaving it evicted. The evacuation is a D2H
// transfer of the session's whole footprint, charged on p's clock, of a
// resident session that is not running. The snapshot and the residency are
// published before the first copy sleeps: from then on s is no eviction
// victim, and a verb arriving for it waits in the restore path for the
// copies to settle instead of running on a half-evacuated arena.
func (m *Manager) suspendSession(p *sim.Proc, s *session) {
	start := p.Now()
	snap := &s.snap
	snap.begin(m.env)
	s.susp = snap
	s.st.res = evicted
	snap.total = 0
	save := func(ptr cuda.DevPtr) ([]byte, int64) {
		if ptr == 0 {
			return nil, 0
		}
		data, size, _ := m.ctx.SwapOut(p, ptr) // a pointer not on the card saves as nothing
		snap.total += size
		return data, size
	}
	snap.in, _ = save(s.devIn)
	save(s.devOut)
	snap.scratch, snap.scrSizes = snap.scratch[:0], snap.scrSizes[:0]
	for _, ptr := range s.scratch {
		data, size := save(ptr)
		snap.scratch = append(snap.scratch, data)
		snap.scrSizes = append(snap.scrSizes, size)
	}
	snap.settle()
	m.met.swapOutBytes.Add(snap.total)
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("evict s%d %dB", s.id, snap.total), start, p.Now())
	}
}

// resumeSession puts the session's device buffers back on the card at the
// addresses they always had, each with its snapshot contents. The kernels
// and flush ops were built against those addresses and are not touched. On
// failure (device memory still exhausted with nothing evictable) every
// buffer it placed is taken back off the card and the snapshot stays
// intact, so the resume can be retried.
func (m *Manager) resumeSession(p *sim.Proc, s *session) error {
	// Restoring may itself need room: the allocator's evictor runs inside
	// these SwapIns and charges the evacuation on p, the running process.
	// The snapshot may still be filling (another process's evacuation of s
	// is in flight); a release can win the wake-up that ends it.
	m.waitSettled(p, s)
	snap := s.susp
	if snap == nil {
		return fmt.Errorf("gvm: session %d was released while its restore waited", s.id)
	}
	snap.begin(m.env)
	defer snap.settle()
	start := p.Now()
	place := func(ptr cuda.DevPtr, data []byte) error {
		if ptr == 0 {
			return nil
		}
		return m.ctx.SwapIn(p, ptr, data)
	}
	// The staged buffers go back on the session's staging, which is what
	// they were; the snapshot's hold on them only ever travels in a
	// migration blob.
	in := snap.in
	if !s.spec.WritesIn && s.pinIn != nil {
		in = s.pinIn.Data()
	}
	err := place(s.devIn, in)
	if err == nil && s.pinOut != nil {
		err = place(s.devOut, s.pinOut.Data())
	}
	for i := 0; err == nil && i < len(s.scratch); i++ {
		err = place(s.scratch[i], snap.scratch[i])
	}
	if err != nil {
		// Take back what this restore placed. Unplace fails, harmlessly, on
		// a buffer it had not reached: that one is off the card already.
		_, _ = m.ctx.Unplace(s.devIn)
		_, _ = m.ctx.Unplace(s.devOut)
		for _, ptr := range s.scratch {
			_, _ = m.ctx.Unplace(ptr)
		}
		return err
	}
	snap.in = nil
	clear(snap.scratch)
	s.susp = nil
	s.st.res = resident
	m.met.restores.Inc()
	m.met.swapInBytes.Add(snap.total)
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("restore s%d %dB", s.id, snap.total), start, p.Now())
	}
	return nil
}

// restoreWithBackoff resumes an evicted session, waiting out transient
// memory pressure: when the obstacle is another RUNNING session (whose
// completion will make it evictable), the restore retries on a growing
// virtual backoff instead of surfacing a spurious error on a verb that
// is valid from the client's point of view — evictions are transparent,
// so their restores must not fail while progress is possible. The wait
// is bounded (a wedged strict barrier can pin memory forever).
//
// Device faults fail fast: a faulted device rejects every Malloc, so no
// amount of waiting for other sessions makes a restore succeed — without
// the check, a restore on a degraded shard with other sessions running
// would burn the full 60 virtual seconds retrying an allocation that can
// never work, stalling the failover engine's quiesce behind it.
//
// The give-up condition distinguishes HOW the blocking memory can come
// free (audited for the failover restore path):
//
//   - progressCalendar: a running flush's completion, or a parked
//     barrier's timeout flush, is a calendar event — it fires while this
//     restore sleeps, so backing off and retrying makes progress.
//   - progressQueued: the memory is pinned by sessions parked at the STR
//     barrier with no timeout armed. Only queued owner work — the peer
//     STR that completes the barrier, or an RLS already waiting behind
//     the verb being served — can free it, and that work cannot run
//     while the front-end waits out this verb (the mqueue loop) or this
//     restore keeps the calendar busy (a drain, adoption). Sleeping here
//     is futile: give up NOW with a retryable error so the owner drains
//     its queue and the client re-issues the verb against freed memory.
//   - progressNone: nothing running, nothing parked — every evictable
//     victim was already evicted by the failed resume, so no amount of
//     waiting helps. Surface the error.
func (m *Manager) restoreWithBackoff(p *sim.Proc, s *session) error {
	const maxWait = 60 * sim.Second
	delay := sim.Millisecond
	var waited sim.Duration
	for {
		err := m.resumeSession(p, s)
		if err == nil {
			return nil
		}
		if _, ok := gpusim.IsFault(err); ok {
			return err
		}
		if waited >= maxWait {
			return err
		}
		switch m.restoreProgress(s) {
		case progressCalendar:
			// Retry below: the calendar frees memory while we sleep.
		case progressQueued:
			return fmt.Errorf("%s", Retryable(err.Error()))
		default:
			return err
		}
		p.Sleep(delay) // calendar drains; running streams complete
		waited += delay
		if delay < 100*sim.Millisecond {
			delay *= 2
		}
	}
}

// Progress classes for a failed in-backoff restore; see
// restoreWithBackoff.
const (
	progressNone = iota
	progressQueued
	progressCalendar
)

// restoreProgress classifies how memory pinned by other sessions can
// come free for a retried restore of s.
func (m *Manager) restoreProgress(s *session) int {
	parked := func(o *session) bool {
		for _, b := range m.strPending {
			if b == o {
				return true
			}
		}
		return false
	}
	best := progressNone
	for _, o := range m.sessions {
		if o != s && o.susp != nil && o.susp.moving {
			// Copies in flight end on the calendar, leaving o's arena freed
			// (evacuation) or idle and evictable (restore).
			return progressCalendar
		}
		if o == s || o.st.phase != running {
			continue
		}
		if !parked(o) {
			// A launched flush completes on the calendar.
			return progressCalendar
		}
		// Parked at the barrier: only a timeout flush progresses on the
		// calendar; otherwise the peer STR must come through the queue.
		if m.cfg.BarrierTimeout > 0 {
			best = progressCalendar
		} else if best < progressQueued {
			best = progressQueued
		}
	}
	return best
}

// evictForAlloc is the allocator's make-room callback: evict the
// least-valuable idle session and let the allocation retry. The
// evacuation is charged on the process that is running the Malloc —
// restores of several sessions interleave across their virtual sleeps, so
// only the environment knows which one that is. It returns false when
// nothing is evictable (no process is running, or every session is
// running, already evicted, or holds no device bytes).
func (m *Manager) evictForAlloc(need int64) bool {
	p := m.env.Current()
	if p == nil {
		return false
	}
	v := m.evictionVictim()
	if v == nil {
		return false
	}
	m.suspendSession(p, v) // a verb arriving meanwhile restores transparently
	m.met.evictions.Inc()
	if m.logs(slog.LevelInfo) {
		m.log.Info("gvm evict", "session", v.id, "bytes", v.susp.total, "need", need)
	}
	return true
}

// evictionVictim picks the session to evict: lowest priority first,
// least recently used within a priority, lowest id as the final
// deterministic tie-break. Running sessions (which includes sessions
// parked at the STR barrier), sessions not resident (which includes
// sessions whose evacuation or restore is still in flight) and sessions
// without device buffers are ineligible.
func (m *Manager) evictionVictim() *session {
	var best *session
	for _, s := range m.sessions {
		if s.st.phase == running || s.st.res != resident {
			continue
		}
		if s.devIn == 0 && s.devOut == 0 && len(s.scratch) == 0 {
			continue
		}
		if best == nil || s.priority < best.priority ||
			(s.priority == best.priority &&
				(s.lastUsed < best.lastUsed || (s.lastUsed == best.lastUsed && s.id < best.id))) {
			best = s
		}
	}
	return best
}

// sessionAllocator is the task.Allocator a session's device allocations
// flow through: it keeps the session's logical reservation — and the
// device's reserved-bytes gauge — in step with what the session holds.
// offCard hands out addresses off the card instead, for an adopted
// session's restore to place.
type sessionAllocator struct {
	m       *Manager
	s       *session
	offCard bool
}

func (a *sessionAllocator) Malloc(n int64) (cuda.DevPtr, error) { return a.malloc(n, false) }

// malloc allocates n bytes for the session; a staged allocation's memory is
// the session's staging (BindDirect), not the device's.
func (a *sessionAllocator) malloc(n int64, staged bool) (cuda.DevPtr, error) {
	malloc := a.m.ctx.Malloc
	switch {
	case a.offCard:
		malloc = a.m.ctx.Address
	case staged:
		malloc = a.m.ctx.MallocUnbacked
	}
	ptr, err := malloc(n)
	if err != nil {
		return 0, err
	}
	rounded := a.m.dev.RoundUp(n)
	a.s.devBytes += rounded
	a.m.dev.Reserve(rounded)
	return ptr, nil
}

// freeSessionBuffers releases the session's device buffers, on the card or
// off it. The logical reservation is untouched: teardown returns it.
func (m *Manager) freeSessionBuffers(s *session) {
	ctx := m.ctx
	if s.devIn != 0 {
		_ = ctx.Free(s.devIn)
		s.devIn = 0
	}
	if s.devOut != 0 {
		_ = ctx.Free(s.devOut)
		s.devOut = 0
	}
	for _, ptr := range s.scratch {
		_ = ctx.Free(ptr)
	}
	s.scratch = nil
}
