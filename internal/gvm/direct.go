package gvm

import (
	"fmt"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/gpusim"
)

// DirectNotify delivers the outcomes of verbs issued through
// Manager.DirectVerb. It runs on the shard-owner goroutine, either inline
// during the DirectVerb call (for verbs that complete instantly) or from a
// calendar event or transient process while the environment drains;
// implementations must not block and must tolerate either context.
type DirectNotify func(verb Verb, st Status, errMsg string)

// BindDirect gives a session its two caller-owned halves: pinned staging
// (in, out) and the control surface (notify). The daemon binds the regions
// of the session's mapped segment (shm and ring planes), so a client
// writing the mapped file IS writing pinned staging and SND/RCV move zero
// bytes — or heap buffers (inline plane, the mqueue front-end). The staging
// is the session's device memory too: its output buffer, and its input
// buffer unless a kernel writes it (task.Spec.WritesIn), live on it, so
// H2D and D2H move no bytes either and only charge their transfer time
// (restage). A timing-only device gets nil staging and the session stays
// data-less; a functional one must get staging. The memory must stay valid
// until the release is acknowledged or ExtractSession returns; both wait out
// a flush in flight and take the session's buffers off it. Every open and
// every adoption is followed by one BindDirect.
func (m *Manager) BindDirect(id int, in, out []byte, notify DirectNotify) error {
	s, ok := m.sessions[id]
	switch {
	case !ok:
		return fmt.Errorf("gvm: BindDirect: unknown session %d", id)
	case notify == nil:
		return fmt.Errorf("gvm: BindDirect: nil notify")
	}
	if in != nil || out != nil {
		if int64(len(in)) != s.spec.InBytes || int64(len(out)) != s.spec.OutBytes {
			return fmt.Errorf("gvm: BindDirect: session %d staging is %d+%d bytes, spec says %d+%d", id, len(in), len(out), s.spec.InBytes, s.spec.OutBytes)
		}
		if s.pinIn != nil {
			s.pinIn = gpusim.WrapHost(in, !m.cfg.PageableStaging)
			if !s.spec.WritesIn {
				if err := m.restage(s, s.devIn, in); err != nil {
					return err
				}
			}
		}
		if s.pinOut != nil {
			s.pinOut = gpusim.WrapHost(out, !m.cfg.PageableStaging)
			if err := m.restage(s, s.devOut, out); err != nil {
				return err
			}
		}
	} else if m.dev.Functional() && s.spec.InBytes+s.spec.OutBytes > 0 {
		return fmt.Errorf("gvm: BindDirect: session %d stages %d+%d bytes on a functional device and got no staging", id, s.spec.InBytes, s.spec.OutBytes)
	}
	s.notify = notify
	// Prebind the copy-completion closures so the hot path schedules them
	// without allocating.
	s.sndDone = func() { m.copied(s, SND, s.spec.InBytes) }
	s.rcvDone = func() { m.copied(s, RCV, s.spec.OutBytes) }
	return nil
}

// restage puts a staged device buffer on the staging b just bound, without
// a copy: an opened session's buffer holds no bytes yet, and an adopted
// one's hold what b holds already — the inline plane binds the extraction's
// own buffers (Staging), and a mapped segment held the bytes all along (a
// copy into it would race the client staging its next input). An evicted
// buffer stays off the card; its restore places it on the staging.
func (m *Manager) restage(s *session, ptr cuda.DevPtr, b []byte) error {
	if s.susp != nil {
		return nil
	}
	if err := m.ctx.Rebind(ptr, b); err != nil {
		return fmt.Errorf("gvm: BindDirect: session %d: %w", s.id, err)
	}
	return nil
}

// tell delivers a verb's outcome, unless the session was torn down while
// it was pending.
func (s *session) tell(verb Verb, st Status, errMsg string) {
	if s.notify != nil {
		s.notify(verb, st, errMsg)
	}
}

// DirectVerb issues one verb on a bound session: the way into the verb
// engine (serve). The verb's virtual cost is charged as calendar events on
// the shard's clock and the outcome arrives via the session's DirectNotify.
// It must run on the owner goroutine, between or during env.Run drains, and
// never blocks. The synchronous error covers only caller bugs (unknown or
// unbound session, a verb that is not a session verb); protocol outcomes —
// including errors — arrive through notify.
//
// Cost model: the client wrote the bytes into what IS the pinned staging
// buffer (or the front-end copied them there), so SND and RCV charge
// exactly one host copy each and zero message hops. A transport's own
// costs are its front-end's: gvmd pays its socket or ring in wall-clock,
// and the mqueue model (vgpu) charges the paper's hops, the client's
// segment copy and the STP poll in virtual time on top. STP is
// blocking-style: the ack fires from the stream's completion callback.
func (m *Manager) DirectVerb(id int, verb Verb) error {
	s, ok := m.sessions[id]
	switch {
	case !ok:
		return fmt.Errorf("gvm: DirectVerb: unknown session %d", id)
	case s.notify == nil:
		return fmt.Errorf("gvm: DirectVerb: session %d not bound", id)
	case verb <= REQ || verb > RLS:
		return fmt.Errorf("gvm: DirectVerb: unsupported verb %v", verb)
	}
	m.met.requests.Inc()
	s.lastUsed = m.env.Now()
	m.serve(s, verb)
	return nil
}
