package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

// DispatcherConfig configures the server-side verb dispatcher.
type DispatcherConfig struct {
	// Node owns the per-GPU manager shards every verb ultimately lands
	// on. The dispatcher places each REQ through the node's policy and
	// from then on routes the session's verbs to its owning shard only
	// (admission control — MaxSessionBytes, device-memory fit — lives in
	// the node layer).
	Node *node.Node
	// Functional carries real payload bytes end to end; otherwise
	// sessions are timing-only and the data planes stay idle.
	Functional bool
	// ShmDir is where shm-plane segments live ("" = /dev/shm).
	ShmDir string
	// Metrics receives the dispatcher's per-verb instruments. nil creates
	// a private registry; the daemon passes the registry it shares with
	// gvm and ipc so one /metrics scrape covers the whole path.
	Metrics *metrics.Registry
	// Rings, when non-nil, enables the ring data plane: REQ may negotiate
	// PlaneRing and the session's later verbs travel through shared-memory
	// rings swept under the shards' owner locks. nil daemons reject PlaneRing.
	Rings *RingHost
	// Log, when non-nil, receives one Debug line per served verb.
	Log *slog.Logger
}

// ShardSubmitter is the one way onto a shard: the calling goroutine becomes
// the shard's simulation owner for a turn — under the shard's lock it calls
// start and runs the calendar dry — and then, the lock released, waits for
// done, which start's work signals when it is over: in that turn, or in some
// other goroutine's later one (a frame parked at the STR barrier is finished
// by the turn that brings its peer). False: the server shut down first. A
// frame starts its session's frameRun directly (hostSession.begin, as the
// ring sweep does); cold work needs a *sim.Proc and goes through onShard.
type ShardSubmitter func(shard int, start func(), done <-chan struct{}) bool

// onShard runs fn on a process of shard's simulation, inside the caller's own
// turn, and waits for it. fn may park on the shard's virtual clock or events.
func (d *Dispatcher) onShard(submit ShardSubmitter, shard int, fn func(p *sim.Proc)) bool {
	done := make(chan struct{})
	return submit(shard, func() {
		d.cfg.Node.Shard(shard).Env.Go(func(p *sim.Proc) {
			p.Daemonize() // it may wait on events only another turn fires
			fn(p)
			close(done)
		})
	}, done)
}

// Dispatcher is the socket front-end of the daemon and the owner of its
// session table. Every stream transport — in-process, unix socket, tcp —
// decodes frames into Requests and hands them to Serve; session verbs run
// through the same frameRun engine the ring host uses, on gvm daemon
// sessions, so gvm.Manager remains the single verb state machine.
//
// Serve runs on connection goroutines and splits every verb frame into a
// connection-side phase (who may address what; payload staging: nothing
// for a mapped plane, whose segment is the pinned staging; the inline
// plane's frame copy) and one turn as the shard's owner per frame, in which
// the connection goroutine itself starts the session's frameRun. The shard's
// critical section is therefore O(scheduling), not O(bytes), and never
// copies host to host.
type Dispatcher struct {
	cfg DispatcherConfig
	met *dispMetrics

	mu       sync.RWMutex // guards the session table
	sessions map[int]*hostSession
}

// dispMetrics are the dispatcher's registry-backed instruments. All maps
// are built once at construction and only read afterwards, so the verb
// hot path costs a map lookup plus a few atomic adds — no allocations
// (the warm-path zero-alloc test holds them to that).
type dispMetrics struct {
	verbs    map[string]*verbInst
	other    *verbInst // catch-all for unknown verbs
	bytesIn  *metrics.Counter
	bytesOut *metrics.Counter
	copyIn   *metrics.Histogram // inline plane's frame->staging copy, wall ns
	batSteps *metrics.Histogram

	// Failover instruments: sessions migrated off unhealthy/draining
	// shards, the host bytes their snapshots moved, and wall-clock
	// migration latency.
	failovers     *metrics.Counter
	migratedBytes *metrics.Counter
	migLatencyNS  *metrics.Histogram
}

// verbInst is one verb's request/error/latency triple.
type verbInst struct {
	reqs *metrics.Counter
	errs *metrics.Counter
	lat  *metrics.Histogram
}

func (dm *dispMetrics) verb(v string) *verbInst {
	if vi := dm.verbs[v]; vi != nil {
		return vi
	}
	return dm.other
}

func newDispMetrics(reg *metrics.Registry) *dispMetrics {
	dm := &dispMetrics{
		verbs:    make(map[string]*verbInst),
		bytesIn:  reg.Counter("gvmd_verb_bytes_total", "payload bytes staged by verb", metrics.L("verb", "SND"), metrics.L("dir", "in")),
		bytesOut: reg.Counter("gvmd_verb_bytes_total", "payload bytes staged by verb", metrics.L("verb", "RCV"), metrics.L("dir", "out")),
		// The one daemon-side copy: a mapped plane's segment is the staging,
		// and an inline RCV aliases staging into the response frame.
		copyIn:   reg.Histogram("gvmd_copy_ns", "wall-clock data-plane copy time", metrics.L("plane", PlaneInline), metrics.L("dir", "in")),
		batSteps: reg.Histogram("gvmd_bat_steps", "sub-requests per BAT frame"),
		failovers: reg.Counter("node_failovers_total",
			"sessions live-migrated off unhealthy or draining shards"),
		migratedBytes: reg.Counter("node_migrated_bytes_total",
			"host bytes moved by session failover (staged input and output, scratch snapshots and a WritesIn input arena)"),
		migLatencyNS: reg.Histogram("node_migration_latency_ns",
			"wall-clock latency of one session failover (extract to adopt)"),
	}
	mk := func(v string) *verbInst {
		return &verbInst{
			reqs: reg.Counter("gvmd_verb_requests_total", "requests served by verb", metrics.L("verb", v)),
			errs: reg.Counter("gvmd_verb_errors_total", "ERR responses by verb", metrics.L("verb", v)),
			lat:  reg.Histogram("gvmd_verb_latency_ns", "wall-clock verb service time", metrics.L("verb", v)),
		}
	}
	for _, v := range []string{"REQ", "BAT", "SND", "STR", "STP", "RCV", "RLS", "STA", "MIG", "ADP"} {
		dm.verbs[v] = mk(v)
	}
	dm.other = mk("other")
	reg.CounterFunc("transport_pool_gets_total", "frame-buffer pool gets", func() int64 { g, _, _, _ := PoolStats(); return g })
	reg.CounterFunc("transport_pool_puts_total", "frame-buffer pool puts", func() int64 { _, p, _, _ := PoolStats(); return p })
	reg.CounterFunc("transport_pool_hits_total", "frame-buffer pool hits", func() int64 { _, _, h, _ := PoolStats(); return h })
	reg.CounterFunc("transport_pool_misses_total", "frame-buffer pool misses", func() int64 { _, _, _, m := PoolStats(); return m })
	return dm
}

// hostSession is the daemon-side state of one client session on either
// front-end: where its gvm session lives and the data plane moving
// payloads to and from the client process, which is its pinned staging.
type hostSession struct {
	id    int
	inB   int64       // staging footprint reserved on the shard
	outB  int64       //   (returned to the node on release)
	owner *ConnState  // the connection that opened the session
	d     *Dispatcher // the session table it is published in

	// migMu is the one fence between a move and everything else: migrate and
	// MIG hold it across both owner submits (source extract, target adopt),
	// a socket frame from its SND's staging copy through its RCV's, and
	// teardown around its submit — so no frame or release ever sees the
	// session between shards; a frame that races a move waits for it. Lock
	// order: migMu, the shard's owner lock (a Submitter call), mu; migMu is
	// never taken inside a turn, so holding it across a Submitter call
	// cannot deadlock.
	migMu sync.Mutex

	// mu guards the connection-side staging state (the plane's staging)
	// and the session's location (remapped by failover) against teardown:
	// retire marks the session closed under mu before closing the plane,
	// and staging copies check closed under mu first. It is a leaf: taken
	// inside a turn (retire), never held across a Submitter call.
	mu     sync.Mutex
	closed bool
	shard  int // the node shard (GPU) hosting the session
	plane  hostPlane

	run frameRun // the session's one frame in flight, on either front-end

	// The socket front-end's way into run, bound once (publish): serveFrame
	// submits begin, which starts run on the session's shard; run's
	// completion — in that turn or a peer's — leaves done its one token.
	begin func()
	done  chan struct{} // capacity 1: one frame in flight
}

// loc snapshots the session's current placement.
func (s *hostSession) loc() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shard
}

// bindStaging gives the gvm session on shard its daemon side: the data plane
// as pinned staging — a mapped plane's client-visible regions, so SND/RCV
// move no bytes on this side and H2D/D2H work on the client's mapping in
// place; heap buffers for the inline plane (the ones an adoption carried
// over, else fresh); nothing on a timing-only daemon — and the session's
// notify as its control surface; a ring session then joins the shard's
// sweep. Owner side (a turn on shard), after every open and adopt, whatever
// the plane.
func (s *hostSession) bindStaging(shard int) error {
	mgr := s.d.cfg.Node.Shard(shard).Mgr
	s.mu.Lock()
	pl := &s.plane
	switch {
	case !s.d.cfg.Functional:
		pl.in, pl.out = nil, nil
	case pl.seg == nil:
		pl.in, pl.out = mgr.Staging(s.id)
		if pl.in == nil {
			pl.in = make([]byte, s.inB)
		}
		if pl.out == nil {
			pl.out = make([]byte, s.outB)
		}
	}
	in, out := pl.in, pl.out
	s.mu.Unlock()
	if err := mgr.BindDirect(s.id, in, out, s.notify); err != nil {
		return err
	}
	if s.plane.ring != nil {
		s.d.cfg.Rings.Shard(shard).join(s.plane.ring, mgr)
	}
	return nil
}

// staged gates SND and RCV payload handling; the caller holds s.mu.
func (s *hostSession) staged() error {
	if s.closed {
		return fmt.Errorf("transport: session %d is closed", s.id)
	}
	return nil
}

// copyIn lands a SND payload in the session's pinned staging: a mapped
// plane's client already wrote it there, the inline plane's rides the
// request frame. Connection-goroutine side.
func (s *hostSession) copyIn(req *Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.plane.in
	if err := s.staged(); err != nil || in == nil {
		return err // nil staging: timing-only, no bytes move
	}
	if s.plane.seg == nil {
		if len(req.Data) != len(in) {
			return fmt.Errorf("transport: inline SND carried %d bytes, session stages %d", len(req.Data), len(in))
		}
		start := time.Now()
		copy(in, req.Data)
		s.d.met.copyIn.Observe(int64(time.Since(start)))
	}
	s.d.met.bytesIn.Add(int64(len(in)))
	return nil
}

// copyOut publishes RCV results from pinned staging: a mapped plane's
// client reads them in place; the inline plane aliases them into the
// response frame, which is written (writev) before the session can start
// another cycle that would overwrite them. Connection-goroutine side.
func (s *hostSession) copyOut(resp *Response) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.plane.out
	if err := s.staged(); err != nil || out == nil {
		return err
	}
	if s.plane.seg == nil {
		resp.Data = out
	}
	s.d.met.bytesOut.Add(int64(len(out)))
	return nil
}

// ConnState is one accepted connection as its front door (Door) hands it
// to the daemon or router serving it: the owner a session names (the one
// connection that may address it, and whose hang-up releases it) and the
// data plane a REQ gets when the client does not ask for one.
type ConnState struct {
	// DefaultPlane is the accepting transport's: PlaneShm for co-located
	// transports, PlaneInline for tcp, PlaneRing for ring.
	DefaultPlane string
	resp         Response // a BAT frame's answer, valid until the connection's next frame
}

// Held reports the sessions in the table.
func (d *Dispatcher) Held() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sessions)
}

// SegPrefix begins the name of every shm file a daemon creates: a session's
// segment is SegPrefix + "<pid>-<n>" and a ring doorbell SegPrefix +
// "<pid>-door<n>", n from one process-wide counter. So two daemons on one
// directory, or two servers in one process, never share a file, and gvmd's
// sweeps (shm.RemoveStale) tell whose a file is: the start-up sweep takes
// those of dead processes, the shutdown sweep its own.
const SegPrefix = "gvmd-seg-"

var segSeq atomic.Uint64

// segName names a new shm file of this process: SegPrefix + "<pid>-" + kind
// + "<n>".
func segName(kind string) string {
	return SegPrefix + strconv.Itoa(os.Getpid()) + "-" + kind + strconv.FormatUint(segSeq.Add(1), 10)
}

// NewDispatcher creates a dispatcher serving cfg.Node's shards.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Dispatcher{cfg: cfg, met: newDispMetrics(cfg.Metrics), sessions: make(map[int]*hostSession)}
}

func errResp(err error) *Response { return &Response{Status: "ERR", Err: err.Error()} }

// Serve services one request from a connection goroutine, which takes a
// turn as the owning shard's simulation owner for the request's owner-side
// phase only (session→shard resolves once at REQ; every later verb routes
// by the session's recorded shard). It returns ok == false when the server shut
// down before the request completed (the connection should close without
// replying). The response is valid until cs's next request.
func (d *Dispatcher) Serve(req *Request, cs *ConnState, submit ShardSubmitter) (resp *Response, ok bool) {
	vi := d.met.verb(req.Verb)
	vi.reqs.Inc()
	start := time.Now()
	switch req.Verb {
	case "REQ", "ADP":
		resp, ok = d.serveREQ(req, cs, submit)
	case "STA":
		resp, ok = d.serveSTA(), true
	case "MIG":
		resp, ok = d.serveMIG(req, cs, submit)
	default:
		// A frame, or a verb FrameSteps refuses as the ring host and the
		// router do: "not a session verb".
		resp, ok = d.serveFrame(req, cs, submit)
	}
	dur := time.Since(start)
	vi.lat.Observe(int64(dur))
	if ok && resp.Status == "ERR" {
		vi.errs.Inc()
	}
	if log := d.cfg.Log; ok && log != nil && log.Enabled(context.Background(), slog.LevelDebug) {
		log.Debug("verb served",
			"verb", req.Verb, "session", req.Session, "status", resp.Status,
			"dur", dur, "err", resp.Err)
	}
	return resp, ok
}

// owned resolves id to a live session that cs opened.
func (d *Dispatcher) owned(id int, cs *ConnState) (*hostSession, error) {
	d.mu.RLock()
	s := d.sessions[id]
	d.mu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("transport: unknown session %d", id)
	}
	if s.owner != cs {
		return nil, fmt.Errorf("transport: session %d belongs to another connection", id)
	}
	return s, nil
}

// lookup resolves id to a session cs may drive over the socket.
func (d *Dispatcher) lookup(id int, cs *ConnState) (*hostSession, error) {
	s, err := d.owned(id, cs)
	if err == nil && s.plane.ring != nil {
		// One front-end per session: its ring may have a frame in flight.
		return nil, fmt.Errorf("transport: session %d takes its verbs through its ring", id)
	}
	return s, err
}

// serveREQ is the one way a session lands on this node. A REQ opens a fresh
// one. An ADP — a REQ whose Data is a MIG blob (federate.go) — adopts the
// blob's session under a freshly minted local id (the source node's striped
// ids can collide with live local ones) on the inline plane, whose staging
// is the blob's own buffers. Either way the adopting connection owns the
// session and the answer names its id, plane and staging sizes.
func (d *Dispatcher) serveREQ(req *Request, cs *ConnState, submit ShardSubmitter) (*Response, bool) {
	if req.Ref == nil {
		return errResp(fmt.Errorf("transport: %s needs a workload reference", req.Verb)), true
	}
	w, err := workloads.FromRef(*req.Ref)
	if err != nil {
		return errResp(err), true
	}
	spec := w.Spec(req.Rank)
	r := gvm.Request{Spec: spec, Priority: req.Priority, Weight: req.Weight}
	kind := req.Plane
	var ext *gvm.ExtractedSession
	if req.Verb == "ADP" {
		if ext, err = gvm.DecodeExtracted(req.Data); err != nil {
			return errResp(err), true
		}
		ext.Request = r
		kind = PlaneInline
	}
	if kind == "" {
		kind = cs.DefaultPlane
	}
	if kind == "" {
		kind = PlaneShm
	}
	plane, err := newHostPlane(kind, d.cfg.Rings, spec.InBytes, spec.OutBytes)
	if err != nil {
		return errResp(err), true
	}

	// Admission + placement: the node picks the shard once, here (for an
	// ADP the router picked the node, the node's own policy picks the
	// shard); every later verb for the session routes straight to it. Owner
	// phase: open or adopt the gvm session (the owner only accounts virtual
	// time, payload bytes never move on it). A shard that faults between the
	// two fails the landing on its own account: place again without it.
	var (
		shard int
		mgr   *gvm.Manager
		id    int
		verr  error
		vms   float64
	)
	for {
		if shard, err = d.cfg.Node.Place(spec.InBytes, spec.OutBytes); err != nil {
			return errResp(err), true
		}
		mgr = d.cfg.Node.Shard(shard).Mgr
		ok := d.onShard(submit, shard, func(p *sim.Proc) {
			if ext == nil {
				id, verr = mgr.OpenSession(p, r)
			} else if verr = mgr.AdoptSession(p, ext); verr == nil {
				id = ext.ID
			}
			vms = p.Now().Milliseconds()
		})
		if ok && verr == nil {
			break
		}
		d.cfg.Node.Release(shard, spec.InBytes, spec.OutBytes)
		if !ok {
			return nil, false
		}
		if !d.cfg.Node.Health(shard).Evacuate() {
			r := errResp(verr)
			r.VirtualMS = vms
			return r, true
		}
	}

	// Connection phase: create the data plane (segment creation is real
	// I/O and stays off the owner).
	s := &hostSession{
		id: id, shard: shard,
		inB: spec.InBytes, outB: spec.OutBytes,
		owner: cs, d: d, plane: plane,
	}
	err = s.plane.create(d.cfg.ShmDir, segName(""), s)
	// Owner phase: the plane becomes the session's pinned staging, and a ring
	// joins the shard's sweep before the session is published; a failure so
	// far unwinds like a release.
	if err == nil && !d.onShard(submit, shard, func(*sim.Proc) { err = s.bindStaging(shard) }) {
		// No verb ever ran on the session, so nothing can touch the
		// mapping this unmaps.
		d.retire(s)
		return nil, false
	}
	if err != nil {
		d.onShard(submit, shard, func(p *sim.Proc) { d.release(p, s) })
		return errResp(err), true
	}
	d.publish(s)
	return &Response{
		Status:    "ACK",
		Session:   s.id,
		Plane:     s.plane.kind,
		Segment:   s.plane.name,
		InBytes:   spec.InBytes,
		OutBytes:  spec.OutBytes,
		VirtualMS: vms,
	}, true
}

// publish makes a fully opened session addressable by its connection, its
// socket frames' entry into the engine bound.
func (d *Dispatcher) publish(s *hostSession) {
	s.done = make(chan struct{}, 1)
	finished := func() {
		select {
		case s.done <- struct{}{}:
		default: // a turn never blocks here
		}
	}
	s.begin = func() { s.run.start(s, d.cfg.Node.Shard(s.loc()).Mgr, finished) }
	d.mu.Lock()
	d.sessions[s.id] = s
	d.mu.Unlock()
}

// serveFrame serves a session verb or a pipelined BAT of them: one
// session's verbs (FrameSteps). Connection phase: check the frame, resolve
// its session to one this connection may address, rescue it off an
// unhealthy shard, stage a SND payload. Owner phase: exactly one turn — this
// goroutine starts the session's frameRun under the shard's lock; a run parked
// at the STR barrier finishes in a peer's turn and is waited for off the lock
// — so a full SPMD cycle (SND+STR+STP+RCV) costs a single submission.
// Connection phase again: publish RCV results, finish RLS bookkeeping. The
// session's migMu is held from the staging copy to the RCV publish, so a
// move waits for the frame and the frame for a move.
func (d *Dispatcher) serveFrame(req *Request, cs *ConnState, submit ShardSubmitter) (*Response, bool) {
	var buf [5]gvm.Verb // a frame has five steps at most; the backing stays on the stack
	id, verbs, bat, err := FrameSteps(req, buf[:0])
	if err != nil {
		return errResp(err), true
	}
	if !bat && verbs[0] == gvm.RLS {
		// The one socket verb a ring session takes: a client that could not
		// attach the ring it was given cannot send its RLS through it, and
		// the session would hold its reservation, staging and segment file
		// until the connection drops. Served as that one session's hang-up.
		if s, err := d.owned(id, cs); err == nil && s.plane.ring != nil {
			vms, ok := d.drop(s, submit)
			return &Response{Status: "ACK", Session: id, VirtualMS: vms}, ok
		}
	}
	s, err := d.lookup(id, cs)
	if err != nil {
		return errResp(err), true
	}
	if bat {
		// Inner steps count against their own verb series too, so a
		// scrape's SND/STR/STP/RCV counters reflect protocol traffic
		// whether or not the client pipelines.
		for _, v := range verbs {
			d.met.verb(v.String()).reqs.Inc()
		}
		d.met.batSteps.Observe(int64(len(verbs)))
	}

	// Failover on touch: a session whose shard has been marked for
	// evacuation moves before the frame is dispatched — its verbs then run
	// on the healthy target instead of bouncing.
	d.rescueIfUnhealthy(s, submit)
	s.migMu.Lock()
	defer s.migMu.Unlock()

	// Connection phase: land the SND payload in pinned staging. SND can only
	// lead a frame, so a frame that cannot stage does no owner work at all.
	var resps []Response
	if verbs[0] == gvm.SND {
		sub := req
		if bat {
			sub = &req.Batch[0]
		}
		if err := s.copyIn(sub); err != nil {
			resps = make([]Response, len(verbs))
			resps[0] = Response{Status: "ERR", Session: id, Err: err.Error()}
			for i := 1; i < len(resps); i++ {
				resps[i] = skipped(id)
			}
		}
	}

	// Owner phase, on the shard the session stays on until migMu is let go.
	if resps == nil {
		s.run.verbs = append(s.run.verbs[:0], verbs...)
		if !submit(s.loc(), s.begin, s.done) {
			return nil, false
		}
		resps = s.run.resps
	}

	for i := range resps {
		r := &resps[i]
		if r.Status == "ACK" && verbs[i] == gvm.RCV {
			if err := s.copyOut(r); err != nil {
				r.Status, r.Err = "ERR", err.Error()
			}
		}
		if bat && r.Status == "ERR" {
			d.met.verb(verbs[i].String()).errs.Inc()
		}
	}
	return frameResponse(bat, resps, &cs.resp), true
}

// release ends a session from outside the verb stream — a hang-up, an
// unwound REQ, a ring session's socket RLS, shutdown: a frame still in flight
// answers (abortRun), gvm lets go (waiting out any flush that still reads or
// writes staging), then the daemon side retires. Owner side, on the session's
// shard.
func (d *Dispatcher) release(p *sim.Proc, s *hostSession) {
	s.abortRun(fmt.Sprintf("transport: session %d released with a frame in flight", s.id))
	d.cfg.Node.Shard(s.loc()).Mgr.ReleaseSession(p, s.id)
	d.retire(s)
}

// drop releases s on its owning shard, holding migMu so the session is not
// between shards meanwhile; it returns the shard's virtual time afterwards,
// or false if the server shut down first (the closure may then still run:
// its result is not read). Connection-goroutine side.
func (d *Dispatcher) drop(s *hostSession, submit ShardSubmitter) (float64, bool) {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	var vms float64
	if !d.onShard(submit, s.loc(), func(p *sim.Proc) {
		d.release(p, s)
		vms = p.Now().Milliseconds()
	}) {
		return 0, false
	}
	return vms, true
}

// retire is the one tail of every way a session ends once gvm no longer
// holds it (an acknowledged RLS, release, a MIG extraction): unpublish it
// and mark it closed under its mutex (waiting out any staging copy in
// flight), close the data plane — staging aliased a mapped plane's
// segment, which is why gvm went first — and return the placement, in that
// order. Idempotent: an RLS in a frame and a hang-up may both get here.
func (d *Dispatcher) retire(s *hostSession) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	plane, shard := s.plane, s.shard
	s.mu.Unlock()
	d.mu.Lock()
	if d.sessions[s.id] == s {
		delete(d.sessions, s.id)
	}
	d.mu.Unlock()
	_ = plane.Close()
	d.cfg.Node.Release(shard, s.inB, s.outB)
}

// HangUp releases, each on its own shard, the sessions the table names cs
// the owner of: what a connection that ended left open. A nil cs owns every
// session: shutdown reclaims the device memory and file-backed segments of
// clients still connected. Connection-goroutine side.
func (d *Dispatcher) HangUp(cs *ConnState, submit ShardSubmitter) {
	var gone []*hostSession
	d.mu.RLock()
	for _, s := range d.sessions {
		if cs == nil || s.owner == cs {
			gone = append(gone, s)
		}
	}
	d.mu.RUnlock()
	for _, s := range gone {
		d.drop(s, submit)
	}
}

// rescueIfUnhealthy migrates s off its shard when the shard is marked
// for evacuation (Unhealthy or Draining). Verb paths call it before
// dispatching so a session on a faulted shard moves at the next client
// touch even if the background evacuation has not reached it yet.
// Failures are logged, not returned: the verb proceeds where the session
// is — with no healthy target it serves in place, untouched.
func (d *Dispatcher) rescueIfUnhealthy(s *hostSession, submit ShardSubmitter) {
	if !d.cfg.Node.Health(s.loc()).Evacuate() {
		return
	}
	if err := d.migrate(s, submit); err != nil && d.cfg.Log != nil {
		d.cfg.Log.Warn("session failover failed", "session", s.id, "err", err)
	}
}

// EvacuateShard live-migrates every session off shard. The daemon wires
// it to the node's fault handler so a shard going Unhealthy or Draining
// empties itself in the background; a socket frame arriving for a session
// mid-move waits for it, a ring frame in flight answers a retryable error
// the client retries.
func (d *Dispatcher) EvacuateShard(shard int, submit ShardSubmitter) {
	d.mu.RLock()
	victims := make([]*hostSession, 0, len(d.sessions))
	for _, s := range d.sessions {
		if s.loc() == shard {
			victims = append(victims, s)
		}
	}
	d.mu.RUnlock()
	for _, s := range victims {
		if err := d.migrate(s, submit); err != nil && d.cfg.Log != nil {
			d.cfg.Log.Warn("session failover failed",
				"session", s.id, "shard", shard, "err", err)
		}
	}
}

// errShutdown reports that the server stopped in the middle of a move.
var errShutdown = errors.New("transport: shutdown during migration")

// extract is the first half of every move — failover to another shard
// (migrate), MIG to another node: on the source owner end a ring frame in
// flight with a retryable error (abortRun; a socket frame cannot be in
// flight, the caller holds s.migMu), take a ring session off its shard's
// sweep (the client's mapping stays valid, and the adopting turn puts the
// same ringSession on the target's sweep), and quiesce and extract the gvm
// session. A session already closed returns no state and no error.
func (d *Dispatcher) extract(s *hostSession, submit ShardSubmitter) (int, *gvm.ExtractedSession, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, nil
	}
	from := s.shard
	s.mu.Unlock()
	mgr := d.cfg.Node.Shard(from).Mgr
	var (
		ext *gvm.ExtractedSession
		err error
	)
	if !d.onShard(submit, from, func(p *sim.Proc) {
		s.abortRun(gvm.Retryable(fmt.Sprintf("transport: session %d migrating off gpu %d", s.id, from)))
		if s.plane.ring != nil {
			s.plane.ring.leave()
		}
		ext, err = mgr.ExtractSession(p, s.id)
	}) {
		return from, nil, errShutdown
	}
	return from, ext, err
}

// adopt is the second half of every move, one turn on shard: adopt ext into
// the shard's gvm manager, bind the staging back onto the data plane (a
// mapped segment held the truth all along: nothing is copied back; a ring
// joins the shard's sweep, its header now naming the shard's door), and
// remap the session's routing — in the turn, because the sweep that ends it
// may already run one of the session's ring frames, an RLS among them. The
// caller holds s.migMu and the placement on shard.
func (d *Dispatcher) adopt(s *hostSession, ext *gvm.ExtractedSession, shard int, submit ShardSubmitter) error {
	mgr := d.cfg.Node.Shard(shard).Mgr
	var err error
	if !d.onShard(submit, shard, func(p *sim.Proc) {
		if err = mgr.AdoptSession(p, ext); err != nil {
			return
		}
		if err = s.bindStaging(shard); err != nil {
			mgr.ReleaseSession(p, s.id) // ext stays adoptable elsewhere
			err = fmt.Errorf("transport: bind session %d staging on gpu %d: %w", s.id, shard, err)
			return
		}
		s.mu.Lock()
		s.shard = shard
		s.mu.Unlock()
	}) {
		return errShutdown
	}
	return err
}

// migrate live-migrates one session off its current shard: reserve a
// target through the node's live policy — which only sees healthy shards —
// then extract on the source owner and adopt on the target owner. A session
// with nowhere healthy to go is left where it is, untouched: it keeps
// serving in place. A frame that races the move waits for it (migMu); an
// interrupted execution cycle re-runs on the target, which is
// byte-identical because kernels are deterministic functions of the staged
// input. An adoption the target refuses re-adopts on the source, so
// teardown keeps working, and the error reports it.
func (d *Dispatcher) migrate(s *hostSession, submit ShardSubmitter) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	if !d.cfg.Node.Health(s.loc()).Evacuate() {
		return nil // another migration already moved it
	}
	to, err := d.cfg.Node.Place(s.inB, s.outB)
	if err != nil {
		return fmt.Errorf("transport: no healthy shard for session %d: %w", s.id, err)
	}
	start := time.Now()
	from, ext, err := d.extract(s, submit)
	if ext == nil {
		d.cfg.Node.Release(to, s.inB, s.outB)
		if err != nil && err != errShutdown {
			err = fmt.Errorf("transport: extract session %d from gpu %d: %w", s.id, from, err)
		}
		return err // nil: closed meanwhile
	}
	if aerr := d.adopt(s, ext, to, submit); aerr != nil {
		d.cfg.Node.Release(to, s.inB, s.outB)
		if rerr := d.adopt(s, ext, from, submit); rerr != nil {
			return fmt.Errorf("transport: session %d stranded: adopt on gpu %d: %v; re-adopt on gpu %d: %v",
				s.id, to, aerr, from, rerr)
		}
		return fmt.Errorf("transport: adopt session %d on gpu %d: %w", s.id, to, aerr)
	}
	d.cfg.Node.Release(from, s.inB, s.outB)

	d.met.failovers.Inc()
	d.met.migratedBytes.Add(ext.Bytes())
	d.met.migLatencyNS.Observe(int64(time.Since(start)))
	if d.cfg.Log != nil {
		d.cfg.Log.Info("session failover",
			"session", s.id, "from", from, "to", to,
			"bytes", ext.Bytes(), "state", ext.State())
	}
	return nil
}
