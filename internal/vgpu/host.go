package vgpu

import (
	"fmt"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// Config holds the parameters of the paper's transport.
type Config struct {
	// MsgLatency is the one-way control-message latency. Default 20 us.
	MsgLatency sim.Duration
	// BlockingSTP defers the STP response until the stream completes
	// instead of answering WAIT (an ablation of the paper's poll-based
	// handshake).
	BlockingSTP bool
}

// mqueue is one POSIX message queue of the paper's control plane (Section
// V): an unbounded FIFO whose every send and every receive pays the hop
// latency on the caller's clock — part of the virtualization overhead the
// paper measures in Figure 10.
type mqueue[T any] struct {
	store   *sim.Store[T]
	latency sim.Duration
}

func newMqueue[T any](env *sim.Env, latency sim.Duration) *mqueue[T] {
	return &mqueue[T]{store: sim.NewStore[T](env, 0), latency: latency}
}

func (q *mqueue[T]) send(p *sim.Proc, msg T) {
	p.Sleep(q.latency) // marshalling + mq_send
	q.store.Put(p, msg)
}

func (q *mqueue[T]) recv(p *sim.Proc) T {
	msg := q.store.Get(p)
	p.Sleep(q.latency)
	return msg
}

// request is a control-plane message from a client to the manager process.
// The reply queue rides on every one, so that a verb naming no live session
// still gets an answer instead of parking its sender forever.
type request struct {
	verb    gvm.Verb
	session int         // every verb but REQ
	open    gvm.Request // REQ
	reply   *mqueue[response]
}

// response is a control-plane message back to a client.
type response struct {
	status  gvm.Status
	session int
	err     string
	seg     shm.Segment // REQ: the session's data plane
}

// Host is the paper's manager process as a front-end of the verb engine,
// beside gvmd's socket dispatcher and ring host: one daemonized,
// single-threaded loop per manager that receives a request (a hop), calls
// the engine and replies (a hop). It owns what is the paper's transport —
// the request and reply queues, each session's shared-memory segment and
// the staging buffers it copies to and from, the WAIT poll — and reaches
// the engine only through OpenSession, BindDirect, DirectVerb and
// ReleaseSession. DESIGN.md §3 has its four rules.
type Host struct {
	mgr      *gvm.Manager
	cfg      Config
	req      *mqueue[request]
	sessions map[int]*hostSession

	issuing bool         // inside the loop's own DirectVerb call
	awaited *hostSession // the loop sleeps until this session's outcome is in
	arrived *sim.Event
	inline  []outcome // for the loop to send, in order
	late    []outcome // for the next reply process
}

type outcome struct {
	to *hostSession
	r  response
}

// hostSession is the front-end's half of one session.
type hostSession struct {
	h       *Host
	id      int
	spec    *task.Spec
	seg     shm.Segment
	in, out []byte // staging lent to the engine; nil on a timing-only device
	reply   *mqueue[response]
	parked  bool      // an STP is parked in the engine
	owed    *response // its outcome, for the next poll
}

// Serve starts mgr's mqueue front-end. A manager has at most one.
func Serve(mgr *gvm.Manager, cfg Config) *Host {
	if cfg.MsgLatency == 0 {
		cfg.MsgLatency = 20 * sim.Microsecond
	}
	h := &Host{mgr: mgr, cfg: cfg, sessions: make(map[int]*hostSession),
		req: newMqueue[request](mgr.Env(), cfg.MsgLatency)}
	mgr.Env().Go(func(p *sim.Proc) {
		p.Daemonize()
		p.Wait(mgr.Ready()) // clients arriving during manager initialization queue
		for {
			r := h.req.recv(p)
			if r.verb == gvm.REQ {
				r.reply.send(p, h.open(p, r))
			} else if s, ok := h.sessions[r.session]; ok {
				h.serve(p, s, r.verb)
			} else {
				r.reply.send(p, response{status: gvm.ERR, err: gvm.Retryable(
					fmt.Sprintf("gvm: unknown session %d on gpu %d", r.session, mgr.GPUIndex()))})
			}
		}
	})
	return h
}

// open serves REQ: a session of the engine, its segment, and the staging
// the engine's copies work on. A REQ that fails after OpenSession releases
// the session before answering ERR.
func (h *Host) open(p *sim.Proc, r request) response {
	id, err := h.mgr.OpenSession(p, r.open)
	if err != nil {
		return response{status: gvm.ERR, err: err.Error()}
	}
	spec, functional := r.open.Spec, h.mgr.Device().Functional()
	s := &hostSession{h: h, id: id, spec: spec, reply: r.reply,
		seg: shm.NewMemory(spec.InBytes+spec.OutBytes, functional)}
	if functional && spec.InBytes > 0 {
		s.in = make([]byte, spec.InBytes)
	}
	if functional && spec.OutBytes > 0 {
		s.out = make([]byte, spec.OutBytes)
	}
	if err := h.mgr.BindDirect(id, s.in, s.out, s.notify); err != nil {
		h.mgr.ReleaseSession(p, id)
		return response{status: gvm.ERR, err: err.Error()}
	}
	h.sessions[id] = s
	return response{status: gvm.ACK, session: id, seg: s.seg}
}

// serve runs one verb of a live session. WAIT is the front-end's: the first
// STP of a running cycle parks in the engine, polls meanwhile are answered
// without touching it, and the parked outcome is owed to the next poll
// (BlockingSTP forwards it instead). Every other outcome but an STR's the
// loop waits out, so copies, releases and transparent restores
// serialize as in the paper's manager; an STR without one is parked at the
// barrier — or restoring an evicted arena on a transient process, which the
// loop cannot tell apart and so lets overlap later requests.
func (h *Host) serve(p *sim.Proc, s *hostSession, verb gvm.Verb) {
	switch {
	case verb == gvm.STP && s.owed != nil:
		s.reply.send(p, *s.owed)
		s.owed = nil
		return
	case verb == gvm.STP && s.parked:
		s.reply.send(p, response{status: gvm.WAIT})
		return
	case verb == gvm.SND && s.in != nil:
		// Paper Figure 8: "Copies Data from Virtual Shared Memory to Host
		// Pinned Memory"; the engine charges the copy's time.
		if err := s.seg.ReadAt(s.in, 0); err != nil {
			s.reply.send(p, response{status: gvm.ERR, err: err.Error()})
			return
		}
	}
	h.issuing = true
	err := h.mgr.DirectVerb(s.id, verb)
	h.issuing = false
	if err != nil {
		s.reply.send(p, response{status: gvm.ERR, err: err.Error()})
		return
	}
	switch answered := sendAll(p, &h.inline, s); {
	case answered || verb == gvm.STR:
	case verb != gvm.STP:
		h.awaited, h.arrived = s, h.mgr.Env().NewEvent()
		p.Wait(h.arrived)
		sendAll(p, &h.inline, s)
	case !h.cfg.BlockingSTP:
		s.parked = true
		s.reply.send(p, response{status: gvm.WAIT})
	}
}

// sendAll takes the outcomes queued in *q and sends them in order, one hop
// each — the STR that completes a barrier hands the loop the whole batch's
// acks — and reports whether s's was among them.
func sendAll(p *sim.Proc, q *[]outcome, s *hostSession) (answered bool) {
	batch := *q
	*q = nil
	for _, o := range batch {
		answered = answered || o.to == s
		o.to.reply.send(p, o.r)
	}
	return answered
}

// notify is the session's gvm.DirectNotify: it finishes what an outcome
// means for the transport and hands it to whoever sends it. It never blocks.
func (s *hostSession) notify(verb gvm.Verb, st gvm.Status, errMsg string) {
	h := s.h
	switch {
	case st != gvm.ACK:
	case verb == gvm.RCV && s.out != nil:
		if err := s.seg.WriteAt(s.out, s.spec.InBytes); err != nil {
			st, errMsg = gvm.ERR, err.Error()
		}
	case verb == gvm.RLS:
		_ = s.seg.Close() // an in-memory segment: nothing to fail
		delete(h.sessions, s.id)
	}
	o := outcome{to: s, r: response{status: st, err: errMsg}}
	switch {
	case verb == gvm.STP && s.parked:
		s.parked, s.owed = false, &o.r
	case h.issuing:
		h.inline = append(h.inline, o)
	case h.awaited == s:
		h.inline = append(h.inline, o)
		h.awaited = nil
		h.arrived.Fire(nil)
	default:
		// Behind the loop's back, from the calendar or a transient process
		// (a timeout flush, a blocking STP's completion): one reply process
		// per burst sends an instant's outcomes.
		if h.late = append(h.late, o); len(h.late) == 1 {
			h.mgr.Env().Go(func(p *sim.Proc) { sendAll(p, &h.late, nil) })
		}
	}
}
