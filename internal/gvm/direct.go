package gvm

import (
	"fmt"

	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
)

// DirectNotify delivers completions of verbs issued through
// Manager.DirectVerb. It runs on the shard-owner goroutine, either inline
// during the DirectVerb call (for verbs that complete instantly) or from a
// calendar event while the environment drains; implementations must not
// block and must tolerate being called from either context.
type DirectNotify func(verb Verb, st Status, errMsg string)

// RebindStaging points a direct-staging session's pinned staging at
// caller-owned memory; direct sessions have none of their own. The
// daemon binds the regions of the session's mapped segment (shm and ring
// planes), so a client writing the mapped file IS writing pinned staging,
// SND/RCV move zero bytes and H2D/D2H work on the mapping in place — or
// heap buffers (inline plane). The memory must stay valid until RLS is
// acknowledged or ExtractSession returns; both wait out a flush in flight.
func (m *Manager) RebindStaging(id int, in, out []byte) error {
	s, ok := m.sessions[id]
	if !ok {
		return fmt.Errorf("gvm: RebindStaging: unknown session %d", id)
	}
	if !s.direct {
		return fmt.Errorf("gvm: RebindStaging: session %d is not direct-staging", id)
	}
	if int64(len(in)) != s.spec.InBytes || int64(len(out)) != s.spec.OutBytes {
		return fmt.Errorf("gvm: RebindStaging: session %d staging is %d+%d bytes, spec says %d+%d", id, len(in), len(out), s.spec.InBytes, s.spec.OutBytes)
	}
	if s.pinIn != nil {
		s.pinIn = gpusim.WrapHost(in, m.cfg.PinnedStaging)
	}
	if s.pinOut != nil {
		s.pinOut = gpusim.WrapHost(out, m.cfg.PinnedStaging)
	}
	return nil
}

// BindDirect attaches a zero-hop control surface to a direct-staging
// session: verb completions flow through notify instead of a reply queue.
//
// The session keeps its reply queue, so queue-path verbs (SUS/RES, or a
// release issued by the daemon's hang-up sweep) still work alongside the
// direct path.
func (m *Manager) BindDirect(id int, notify DirectNotify) error {
	s, ok := m.sessions[id]
	if !ok {
		return fmt.Errorf("gvm: BindDirect: unknown session %d", id)
	}
	if !s.direct {
		return fmt.Errorf("gvm: BindDirect: session %d is not direct-staging", id)
	}
	if notify == nil {
		return fmt.Errorf("gvm: BindDirect: nil notify")
	}
	s.notify = notify
	// Prebind the copy-completion closures so the hot path schedules them
	// without allocating.
	s.sndDone = func() { s.tell(SND, ACK, "") }
	s.rcvDone = func() { s.tell(RCV, ACK, "") }
	return nil
}

// tell delivers a direct completion, unless the session was torn down
// while it was pending.
func (s *session) tell(verb Verb, st Status, errMsg string) {
	if s.notify != nil {
		s.notify(verb, st, errMsg)
	}
}

// DirectVerb issues one hot-path verb on a bound session, bypassing the
// message queues entirely: the verb's virtual cost is charged as calendar
// events on the shard's clock and the outcome arrives via the session's
// DirectNotify. It must run on the owner goroutine, between or during
// env.Run drains. The synchronous error covers only caller bugs (unknown
// or unbound session, unsupported verb); protocol outcomes — including
// errors — arrive through notify.
//
// Cost model vs the queue path: a ring client writes the mapped segment
// directly, which IS the pinned staging buffer after RebindStaging, so SND
// and RCV charge exactly one host copy each (the one real memcpy that
// happened) and zero message-queue hops — the mqueue latency the paper
// measures as virtualization overhead is what this path deletes.
func (m *Manager) DirectVerb(id int, verb Verb) error {
	s, ok := m.sessions[id]
	if !ok {
		return fmt.Errorf("gvm: DirectVerb: unknown session %d", id)
	}
	if s.notify == nil {
		return fmt.Errorf("gvm: DirectVerb: session %d not bound", id)
	}
	m.met.requests.Inc()
	s.lastUsed = m.env.Now()
	if s.failed != nil && verb != RLS {
		// The device faulted under this session's kernels: bounce with a
		// retryable error until the failover engine migrates the session.
		s.notify(verb, ERR, retryableSessionErr(s.id, m.cfg.GPUIndex, s.failed))
		return nil
	}
	if s.susp != nil && (verb == SND || verb == STR || verb == RCV ||
		(verb == STP && s.rerunPending)) {
		if !s.evicted {
			// Client-driven SUS still demands an explicit RES.
			s.notify(verb, ERR, fmt.Sprintf("gvm: %v on suspended session %d", verb, s.id))
			return nil
		}
		// The manager evicted this session's arena; restore it
		// transparently before the verb. DirectVerb must not block, so the
		// restore runs on a transient process and re-issues the verb — its
		// completion reaches notify during a calendar drain, exactly like
		// any deferred direct completion.
		m.env.Go("gvm-restore", func(p *sim.Proc) {
			if err := m.restoreWithBackoff(p, s); err != nil {
				s.tell(verb, ERR, err.Error())
				return
			}
			// Adopted mid-cycle: replay or cancel the interrupted flush
			// before serving the verb (an STP triggering a replay then
			// parks on stpDirectWait).
			m.gateRerun(s, verb)
			m.directDispatch(s, verb)
		})
		return nil
	}
	m.gateRerun(s, verb)
	return m.directDispatch(s, verb)
}

// directDispatch performs one direct verb on a live (restored) session.
func (m *Manager) directDispatch(s *session, verb Verb) error {
	switch verb {
	case SND:
		if d := m.HostCopyTime(s.spec.InBytes); d > 0 {
			m.env.After(d, s.sndDone)
		} else {
			s.sndDone()
		}
	case STR:
		m.directSTR(s)
	case STP:
		// Ring STP is always blocking-style: no WAIT polling ever crosses
		// the ring; the ack fires from the stream's completion callback.
		switch {
		case s.done:
			s.notify(STP, ACK, "")
		case s.running:
			s.stpDirectWait = true
		default:
			s.notify(STP, ERR, "gvm: STP before STR")
		}
	case RCV:
		if !s.done {
			s.notify(RCV, ERR, "gvm: RCV before completion")
			return nil
		}
		if d := m.HostCopyTime(s.spec.OutBytes); d > 0 {
			m.env.After(d, s.rcvDone)
		} else {
			s.rcvDone()
		}
	case RLS:
		// Release may wait out a flush still in flight and DirectVerb must
		// not block: a transient process does the waiting.
		m.env.Go("gvm-rls", func(p *sim.Proc) {
			if notify := s.notify; m.release(p, s) && notify != nil {
				notify(RLS, ACK, "")
			}
		})
	case SUS:
		// The evacuation D2H needs a process clock; conditions are checked
		// inside the transient process, where they are authoritative.
		m.env.Go("gvm-sus", func(p *sim.Proc) {
			switch {
			case s.running:
				s.tell(SUS, ERR, "gvm: SUS while running")
			case s.susp != nil && s.evicted:
				// Adopt the eviction engine's snapshot as a client-held
				// suspension (evictions are transparent to the client).
				s.evicted = false
				m.met.suspensions.Inc()
				s.tell(SUS, ACK, "")
			case s.susp != nil:
				s.tell(SUS, ERR, "gvm: already suspended")
			default:
				m.suspendSession(p, s)
				m.met.suspensions.Inc()
				s.tell(SUS, ACK, "")
			}
		})
	case RES:
		m.env.Go("gvm-res", func(p *sim.Proc) {
			if s.susp == nil {
				s.tell(RES, ERR, "gvm: RES without SUS")
				return
			}
			if err := m.resumeSession(p, s, false); err != nil {
				s.tell(RES, ERR, err.Error())
				return
			}
			s.tell(RES, ACK, "")
		})
	default:
		return fmt.Errorf("gvm: DirectVerb: unsupported verb %v", verb)
	}
	return nil
}

// directSTR joins the session to the STR barrier exactly like the queue
// path does — ring and queue sessions may share one barrier generation —
// and flushes when the shard's parties have all arrived.
func (m *Manager) directSTR(s *session) {
	if s.running {
		s.notify(STR, ERR, "gvm: STR while already running")
		return
	}
	s.running = true
	s.done = false
	s.strArrived = m.env.Now()
	m.strPending = append(m.strPending, s)
	if len(m.strPending) < m.cfg.Parties {
		if m.cfg.BarrierTimeout > 0 && len(m.strPending) == 1 {
			m.armBarrierTimeout()
		}
		return
	}
	m.flushBatch(nil, false)
}
