package transport

import (
	"errors"
	"fmt"

	"gpuvirt/internal/gvm"
)

// FrameSteps is the protocol's frame rule, written once for every carrier:
// a frame is one session's verbs. It is a lone session verb, or a non-empty
// BAT of cycle verbs (SND, STR, STP, RCV, RLS — no REQ, no nesting) that
// all address one session and appear at most once each, in cycle order.
// The order is what makes the zero-copy RCV response safe (nothing later in
// the frame can overwrite the session's staging); the one session is what
// keeps a frame from waiting on itself at the STR barrier, where a second
// session's STR queued behind the first's in the same frame could never
// arrive. The socket dispatcher, the ring host and the federation router
// all call it before any session work, so a malformed frame draws the same
// error on all three.
//
// The steps are appended to verbs[:0], five at most.
func FrameSteps(req *Request, verbs []gvm.Verb) (session int, _ []gvm.Verb, bat bool, err error) {
	verbs = verbs[:0]
	if req.Verb != "BAT" {
		verb, ok := gvm.ParseVerb(req.Verb)
		if !ok || verb == gvm.REQ {
			return 0, nil, false, fmt.Errorf("transport: verb %q is not a session verb", req.Verb)
		}
		return req.Session, append(verbs, verb), false, nil
	}
	if len(req.Batch) == 0 {
		return 0, nil, true, errors.New("transport: empty BAT")
	}
	session = req.Batch[0].Session
	last := gvm.REQ // gvm declares the verbs in cycle order: a step's rank is its verb
	for i := range req.Batch {
		sub := &req.Batch[i]
		verb, ok := gvm.ParseVerb(sub.Verb)
		switch {
		case !ok || verb < gvm.SND || verb > gvm.RLS:
			err = fmt.Errorf("transport: verb %q not allowed in BAT", sub.Verb)
		case len(sub.Batch) > 0:
			err = errors.New("transport: nested BAT")
		case sub.Session != session:
			err = fmt.Errorf("transport: BAT addresses sessions %d and %d; a frame carries one session's verbs", session, sub.Session)
		case verb <= last:
			err = fmt.Errorf("transport: BAT verbs for session %d must appear once each, in SND<STR<STP<RCV<RLS order", session)
		}
		if err != nil {
			return 0, nil, true, err
		}
		last = verb
		verbs = append(verbs, verb)
	}
	return session, verbs, true, nil
}

// frameRun is the daemon's verb engine: it walks a frame's steps through
// gvm.Manager.DirectVerb on the session's shard, one step at a time, and is
// the only code that does. Each outcome comes back through the session's
// DirectNotify, inline or from the shard's calendar, and resumes the walk;
// the first step that does not ACK fails the run and everything behind it
// answers "skipped". A step parked at the STR barrier simply has no
// outcome yet, so neither has the run. The front-ends stay thin: they
// decode, check who may address what, start the run, and carry resps back.
//
// A session has one frame in flight on either carrier, so the run lives in
// its hostSession and keeps verbs and resps across frames: a warm frame
// allocates nothing here. The front-end fills verbs (FrameSteps) before
// start; from then until done everything is owner-only (inside a turn on the
// session's shard).
type frameRun struct {
	s     *hostSession
	mgr   *gvm.Manager
	verbs []gvm.Verb
	resps []Response // one per step; a run leaves none empty
	done  func()     // called once, when every step has its response

	idx     int  // the step executing (or next to)
	waiting bool // verbs[idx]'s outcome is pending in the calendar
	issuing bool // inside advance: inline outcomes must not recurse
	failed  bool
}

// skipped is the response of a step an earlier failure kept from running.
func skipped(session int) Response {
	return Response{Status: "ERR", Session: session, Err: "transport: skipped after earlier BAT failure"}
}

// frameResponse assembles a frame's wire response from its steps': a lone
// verb answers for itself, a BAT acknowledges the batch in env, the
// carrier's retained response — at the virtual time of the last step that
// ran — and nests every step's own outcome.
func frameResponse(bat bool, resps []Response, env *Response) *Response {
	if !bat {
		return &resps[0]
	}
	*env = Response{Status: "ACK", Batch: resps}
	for i := range resps {
		if resps[i].VirtualMS > 0 {
			env.VirtualMS = resps[i].VirtualMS
		}
	}
	return env
}

// start runs s's staged verbs on mgr's shard, filling resps and then
// calling done — possibly before start returns.
func (r *frameRun) start(s *hostSession, mgr *gvm.Manager, done func()) {
	r.s, r.mgr, r.done = s, mgr, done
	r.idx, r.failed = 0, false
	if cap(r.resps) < len(r.verbs) {
		r.resps = make([]Response, len(r.verbs))
	}
	r.resps = r.resps[:len(r.verbs)]
	r.advance()
}

// advance issues steps until one leaves its outcome in the calendar or
// the run is over.
func (r *frameRun) advance() {
	r.issuing = true
	for !r.waiting {
		if r.failed || r.idx == len(r.verbs) {
			for ; r.idx < len(r.verbs); r.idx++ {
				r.resps[r.idx] = skipped(r.s.id)
			}
			r.done()
			break
		}
		r.waiting = true
		if err := r.mgr.DirectVerb(r.s.id, r.verbs[r.idx]); err != nil {
			// Synchronous errors mean the session is not (or no longer) on
			// this manager; they answer like a protocol ERR.
			r.complete(gvm.ERR, err.Error())
		}
	}
	r.issuing = false
}

// complete records the outcome of the step the run is waiting on and,
// when it arrived from the calendar rather than inline, resumes the walk.
// An RLS that gvm acknowledged takes the session's daemon side with it.
func (r *frameRun) complete(st gvm.Status, errMsg string) {
	if !r.waiting {
		return // no step is waiting for an outcome
	}
	r.waiting = false
	if st != gvm.ACK {
		r.failed = true
	} else if r.verbs[r.idx] == gvm.RLS {
		r.s.d.retire(r.s)
	}
	r.resps[r.idx] = Response{
		Status:    st.String(),
		Session:   r.s.id,
		Err:       errMsg,
		VirtualMS: r.mgr.Env().Now().Milliseconds(),
	}
	r.idx++
	if !r.issuing {
		r.advance()
	}
}

// notify is the session's gvm.DirectNotify: the outcome belongs to the
// step its run is waiting on.
func (s *hostSession) notify(_ gvm.Verb, st gvm.Status, errMsg string) {
	s.run.complete(st, errMsg)
}

// abortRun is the one rule for a frame in flight when its session leaves
// the shard: the frame cannot complete here anymore, so the step it waits
// on answers errMsg at once and the rest are skipped. A move (failover,
// drain) answers a retryable error — the client re-submits the frame and
// the session's new home serves it; a release (hang-up, shutdown) a final
// one. The socket dispatcher serializes both behind its frames
// (hostSession.migMu), so in practice only ring frames, and socket frames
// the server abandoned at shutdown, are ever caught.
func (s *hostSession) abortRun(errMsg string) {
	s.run.complete(gvm.ERR, errMsg)
}
