package transport

import (
	"fmt"

	"gpuvirt/internal/gvm"
)

// runStep is one verb of a frame, resolved to the session it addresses.
type runStep struct {
	s    *hostSession
	verb gvm.Verb
}

// frameRun is the daemon's verb engine: it walks a run of steps — a whole
// frame, or a socket BAT's contiguous same-shard stretch — through
// gvm.Manager.DirectVerb on one shard, one step at a time, and is the only
// code that does. Each outcome comes back through the addressed session's
// DirectNotify, inline or from the shard's calendar, and resumes the walk;
// the first step that does not ACK fails the run and everything behind it
// answers "skipped". A step parked at the STR barrier simply has no
// outcome yet, so neither has the run. The front-ends stay thin: they
// decode, check who may address what, start a run, and carry resps back.
//
// All methods are owner-goroutine-only.
type frameRun struct {
	mgr   *gvm.Manager
	steps []runStep
	resps []Response // one per step; a run leaves none empty
	done  func()     // called once, when every step has its response

	idx     int  // the step executing (or next to)
	waiting bool // steps[idx]'s outcome is pending in the calendar
	issuing bool // inside advance: inline outcomes must not recurse
	failed  bool
}

// sessionVerb maps a wire verb onto the verbs a session takes. REQ and BAT
// (and anything unknown) are excluded: the one opens a session, the other
// is a container.
func sessionVerb(v string) (gvm.Verb, bool) {
	verb, ok := gvm.ParseVerb(v)
	return verb, ok && verb != gvm.REQ
}

// skipped is the response of a step an earlier failure kept from running.
func skipped(session int) Response {
	return Response{Status: "ERR", Session: session, Err: "transport: skipped after earlier BAT failure"}
}

// frameResponse assembles a frame's wire response from its steps': a lone
// verb answers for itself, a BAT acknowledges the batch — at the virtual
// time of the last step that ran — and nests every step's own outcome.
func frameResponse(bat bool, resps []Response) Response {
	if !bat {
		return resps[0]
	}
	out := Response{Status: "ACK", Batch: resps}
	for i := range resps {
		if resps[i].VirtualMS > 0 {
			out.VirtualMS = resps[i].VirtualMS
		}
	}
	return out
}

// start runs steps on mgr's shard, filling resps and then calling done —
// possibly before start returns.
func (r *frameRun) start(mgr *gvm.Manager, steps []runStep, resps []Response, done func()) {
	*r = frameRun{mgr: mgr, steps: steps, resps: resps, done: done}
	r.advance()
}

// advance issues steps until one leaves its outcome in the calendar or
// the run is over.
func (r *frameRun) advance() {
	r.issuing = true
	for !r.waiting {
		if r.failed || r.idx == len(r.steps) {
			for k := r.idx; k < len(r.steps); k++ {
				r.resps[k] = skipped(r.steps[k].s.id)
			}
			r.idx = len(r.steps)
			r.done()
			break
		}
		st := r.steps[r.idx]
		st.s.run = r
		r.waiting = true
		if err := r.mgr.DirectVerb(st.s.id, st.verb); err != nil {
			// Synchronous errors mean the session is not (or no longer) on
			// this manager; they answer like a protocol ERR.
			r.complete(st.s, gvm.ERR, err.Error())
		}
	}
	r.issuing = false
}

// complete records the outcome of the step the run is waiting on and,
// when it arrived from the calendar rather than inline, resumes the walk.
// An RLS that gvm acknowledged takes the session's daemon side with it.
func (r *frameRun) complete(s *hostSession, st gvm.Status, errMsg string) {
	if !r.waiting || r.steps[r.idx].s != s {
		return // not what this run is waiting for
	}
	r.waiting = false
	s.run = nil
	if st != gvm.ACK {
		r.failed = true
	} else if r.steps[r.idx].verb == gvm.RLS {
		s.d.retire(s)
	}
	r.resps[r.idx] = Response{
		Status:    st.String(),
		Session:   s.id,
		Err:       errMsg,
		VirtualMS: r.mgr.Env().Now().Milliseconds(),
	}
	r.idx++
	if !r.issuing {
		r.advance()
	}
}

// notify is the session's gvm.DirectNotify: the outcome belongs to the run
// that issued the session's verb.
func (s *hostSession) notify(_ gvm.Verb, st gvm.Status, errMsg string) {
	if r := s.run; r != nil {
		r.complete(s, st, errMsg)
	}
}

// abortRun is the one rule for a frame in flight when its session leaves
// the shard (failover, drain): the frame cannot complete here anymore, so
// the step it waits on answers a retryable error at once and the rest are
// skipped; the client re-submits the frame and the session's new home
// serves it. The socket dispatcher serializes migrations behind its frames
// (hostSession.migMu), so in practice only ring frames are ever caught.
func (s *hostSession) abortRun(shard int) {
	if r := s.run; r != nil {
		r.complete(s, gvm.ERR, gvm.Retryable(fmt.Sprintf("transport: session %d migrating off gpu %d", s.id, shard)))
	}
}
