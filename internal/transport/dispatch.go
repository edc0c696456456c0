package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/vgpu"
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
	// SegPrefix names shm-plane segment files (default "gvmd-seg").
	SegPrefix string
	// Metrics receives the dispatcher's per-verb instruments. nil creates
	// a private registry; the daemon passes the registry it shares with
	// gvm and ipc so one /metrics scrape covers the whole path.
	Metrics *metrics.Registry
	// Rings, when non-nil, enables the ring data plane: REQ may negotiate
	// PlaneRing and the session's later verbs travel through shared-memory
	// rings swept by the shard owner loops. nil daemons reject PlaneRing.
	Rings *RingHost
	// Log, when non-nil, receives one Debug line per served verb.
	Log *slog.Logger
}

// ShardSubmitter runs fn on shard's simulation-owner goroutine and waits
// for it; it returns false if the server shut down before fn completed.
type ShardSubmitter func(shard int, fn func(p *sim.Proc)) bool

// Dispatcher is the one server-side implementation of the
// REQ/SND/STR/STP/RCV/RLS protocol for real clients. Every transport —
// in-process, unix socket, tcp — decodes frames into Requests and hands
// them to Serve; the dispatcher drives the same vgpu client API the
// simulation uses, so gvm.Manager remains the single verb state machine.
//
// Serve runs on connection goroutines and splits every verb into a
// connection-side phase (payload staging: nothing for a mapped plane,
// whose segment is the pinned staging; the inline plane's frame copy) and
// a minimal owner-side phase submitted to the simulation owner (state
// mutation and virtual time only). The owner's critical section is
// therefore O(scheduling), not O(bytes). Sessions are opened in gvm's
// direct-staging mode, so the owner never copies host to host.
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
	copyIn   *metrics.Histogram // inline plane's frame<->staging copy, wall ns
	copyOut  *metrics.Histogram
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
		// Only the inline plane copies: mapped planes' segments are the
		// staging, so there is no daemon-side copy to time.
		copyIn:   reg.Histogram("gvmd_copy_ns", "wall-clock data-plane copy time", metrics.L("plane", PlaneInline), metrics.L("dir", "in")),
		copyOut:  reg.Histogram("gvmd_copy_ns", "wall-clock data-plane copy time", metrics.L("plane", PlaneInline), metrics.L("dir", "out")),
		batSteps: reg.Histogram("gvmd_bat_steps", "sub-requests per BAT frame"),
		failovers: reg.Counter("node_failovers_total",
			"sessions live-migrated off unhealthy or draining shards"),
		migratedBytes: reg.Counter("node_migrated_bytes_total",
			"host bytes moved by session failover (arena snapshots plus staging)"),
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
	for _, v := range []string{"REQ", "BAT", "SND", "STR", "STP", "RCV", "RLS", "SUS", "RES", "STA", "MIG", "ADP"} {
		dm.verbs[v] = mk(v)
	}
	dm.other = mk("other")
	reg.CounterFunc("transport_pool_gets_total", "frame-buffer pool gets", func() int64 { g, _, _, _ := PoolStats(); return g })
	reg.CounterFunc("transport_pool_puts_total", "frame-buffer pool puts", func() int64 { _, p, _, _ := PoolStats(); return p })
	reg.CounterFunc("transport_pool_hits_total", "frame-buffer pool hits", func() int64 { _, _, h, _ := PoolStats(); return h })
	reg.CounterFunc("transport_pool_misses_total", "frame-buffer pool misses", func() int64 { _, _, _, m := PoolStats(); return m })
	return dm
}

// hostSession is the daemon-side state of one client session: the vgpu
// handle doing the protocol work, the data plane moving payloads to and
// from the client process, and the pinned staging bound onto it.
type hostSession struct {
	id    int
	inB   int64        // staging footprint reserved on the shard
	outB  int64        //   (returned to the node on release)
	owner *ConnState   // the connection that opened the session
	met   *dispMetrics // the owning dispatcher's instruments
	// ref/rank identify the session's workload in wire-serializable form;
	// the cross-node MIG path ships them with the extracted state so the
	// adopting node can rebuild the (non-serializable) kernel spec.
	ref  workloads.Ref
	rank int

	// migMu serializes failover migrations against verb dispatch and
	// teardown: migrate holds it across both owner submits (source
	// extract, target adopt), and every owner-phase caller holds it
	// around its submit so a verb never runs while the session is
	// between shards. Lock order: migMu before mu; neither is ever
	// taken by an owner-goroutine closure, so holding migMu across a
	// Submitter call cannot deadlock.
	migMu sync.Mutex

	// mu guards the connection-side staging state (plane + buffers) and
	// the session's location (shard + vgpu handle, remapped atomically
	// by failover) against teardown: release marks the session closed
	// under mu before closing the plane, and staging copies check closed
	// under mu first. It is never held across a Submitter call.
	mu        sync.Mutex
	closed    bool
	migrating bool // a failover is moving the session between shards
	v         *vgpu.VGPU
	shard     int // the node shard (GPU) hosting the session
	plane     HostPlane
	// Pinned staging (bindStaging): a mapped plane's own regions, heap
	// for the inline plane, nil on a timing-only daemon.
	stageIn, stageOut []byte

	started bool // owner-goroutine state: an STR has not been STP'd yet
}

// loc snapshots the session's current placement.
func (s *hostSession) loc() (shard int, v *vgpu.VGPU) {
	s.mu.Lock()
	shard, v = s.shard, s.v
	s.mu.Unlock()
	return shard, v
}

// adoptOwner lands an extracted session on mgr and binds its staging.
// Owner-goroutine side.
func (s *hostSession) adoptOwner(p *sim.Proc, mgr *gvm.Manager, ext *gvm.ExtractedSession, functional bool) (*vgpu.VGPU, error) {
	v, err := vgpu.Adopt(p, mgr, ext)
	if err != nil {
		return nil, err
	}
	if err := s.bindStaging(mgr, functional); err != nil {
		_ = v.Release(p) // ext stays adoptable elsewhere
		return nil, fmt.Errorf("transport: bind session %d staging on gpu %d: %w", s.id, mgr.GPUIndex(), err)
	}
	return v, nil
}

// bindStaging makes the session's data plane its pinned staging: a mapped
// plane's client-visible regions, so SND/RCV move no bytes on this side
// and H2D/D2H work on the client's mapping in place; heap buffers for the
// inline plane (the ones an adoption carried over, else fresh). A ring
// session's control surface is bound along with it. Owner-goroutine side,
// after every open and adopt; a timing-only daemon stages nothing.
func (s *hostSession) bindStaging(mgr *gvm.Manager, functional bool) error {
	if functional {
		in, out := s.plane.Regions()
		if _, inline := s.plane.(inlineHostPlane); inline {
			in, out = mgr.Staging(s.id)
			if in == nil {
				in = make([]byte, s.inB)
			}
			if out == nil {
				out = make([]byte, s.outB)
			}
		}
		if err := mgr.RebindStaging(s.id, in, out); err != nil {
			return err
		}
		s.mu.Lock()
		s.stageIn, s.stageOut = in, out
		s.mu.Unlock()
	}
	if rp, ok := s.plane.(*ringHostPlane); ok {
		return mgr.BindDirect(s.id, rp.sess.notify)
	}
	return nil
}

// staged gates SND and RCV payload handling; the caller holds s.mu.
func (s *hostSession) staged() error {
	if s.closed {
		return fmt.Errorf("transport: session %d is closed", s.id)
	}
	if s.migrating {
		return errors.New(gvm.Retryable(fmt.Sprintf("transport: session %d migrating", s.id)))
	}
	return nil
}

// copyIn lands a SND payload in the session's pinned staging: a mapped
// plane's client already wrote it there, the inline plane's rides the
// request frame. Connection-goroutine side.
func (s *hostSession) copyIn(req *Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.staged(); err != nil || s.stageIn == nil {
		return err // nil staging: timing-only, no bytes move
	}
	if _, inline := s.plane.(inlineHostPlane); inline {
		if len(req.Data) != len(s.stageIn) {
			return fmt.Errorf("transport: inline SND carried %d bytes, session stages %d", len(req.Data), len(s.stageIn))
		}
		start := time.Now()
		copy(s.stageIn, req.Data)
		s.met.copyIn.Observe(int64(time.Since(start)))
	}
	s.met.bytesIn.Add(int64(len(s.stageIn)))
	return nil
}

// copyOut publishes RCV results from pinned staging: a mapped plane's
// client reads them in place; the inline plane aliases them into the
// response frame, which is written (writev) before the session can start
// another cycle that would overwrite them. Connection-goroutine side.
func (s *hostSession) copyOut(resp *Response) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.staged(); err != nil || s.stageOut == nil {
		return err
	}
	if _, inline := s.plane.(inlineHostPlane); inline {
		start := time.Now()
		resp.Data = s.stageOut
		s.met.copyOut.Observe(int64(time.Since(start)))
	}
	s.met.bytesOut.Add(int64(len(s.stageOut)))
	return nil
}

// ConnState is the dispatcher's per-connection state: which sessions the
// connection opened (released if it drops) and the data plane a REQ gets
// when the client does not ask for one. Only the owning connection may
// address its sessions.
type ConnState struct {
	// DefaultPlane is set by the server from the accepting transport:
	// PlaneShm for co-located transports, PlaneInline for tcp.
	DefaultPlane string
	owned        []int
}

func (cs *ConnState) dropOwned(id int) {
	for i, o := range cs.owned {
		if o == id {
			cs.owned = append(cs.owned[:i], cs.owned[i+1:]...)
			return
		}
	}
}

// NewDispatcher creates a dispatcher serving cfg.Node's shards.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	if cfg.SegPrefix == "" {
		cfg.SegPrefix = "gvmd-seg"
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Dispatcher{cfg: cfg, met: newDispMetrics(cfg.Metrics), sessions: make(map[int]*hostSession)}
}

// Metrics returns the registry holding the dispatcher's instruments.
func (d *Dispatcher) Metrics() *metrics.Registry { return d.cfg.Metrics }

func errResp(err error) Response { return Response{Status: "ERR", Err: err.Error()} }

// batchVerbRank orders the verbs allowed inside a BAT frame (0: none yet).
// Each session may run at most one cycle per batch (its verbs must appear
// in strictly increasing rank), which is what makes the zero-copy RCV
// response safe: nothing later in the batch can overwrite that session's
// staging.
var batchVerbRank = map[string]int{"SND": 1, "STR": 2, "STP": 3, "RCV": 4, "RLS": 5}

// BatchStepRank checks one sub-request of a BAT frame against the rule
// above and returns its rank; last is the rank of the same session's
// previous step in the frame (0 for its first). The socket dispatcher, the
// ring host and the federation router all go through it, so a malformed
// batch draws the same error on every path.
func BatchStepRank(sub *Request, last int) (int, error) {
	rank, allowed := batchVerbRank[sub.Verb]
	if !allowed {
		return 0, fmt.Errorf("transport: verb %q not allowed in BAT", sub.Verb)
	}
	if len(sub.Batch) > 0 {
		return 0, errors.New("transport: nested BAT")
	}
	if rank <= last {
		return 0, fmt.Errorf("transport: BAT verbs for session %d must appear once each, in SND<STR<STP<RCV<RLS order", sub.Session)
	}
	return rank, nil
}

// Serve services one request from a connection goroutine, submitting only
// the verb's owner-side phase to the owning shard's simulation owner
// (session→shard resolves once at REQ; every later verb routes by the
// session's recorded shard). It returns ok == false when the server shut
// down before the request completed (the connection should close without
// replying).
func (d *Dispatcher) Serve(req Request, cs *ConnState, submit ShardSubmitter) (resp Response, ok bool) {
	vi := d.met.verb(req.Verb)
	vi.reqs.Inc()
	start := time.Now()
	switch req.Verb {
	case "REQ":
		resp, ok = d.serveREQ(req, cs, submit)
	case "BAT":
		resp, ok = d.serveBAT(req, cs, submit)
	case "SND", "STR", "STP", "RCV", "RLS", "SUS", "RES":
		resp, ok = d.serveVerb(req, cs, submit)
	case "STA":
		resp, ok = d.serveSTA(), true
	case "MIG":
		resp, ok = d.serveMIG(req, cs, submit)
	case "ADP":
		resp, ok = d.serveADP(req, cs, submit)
	default:
		resp, ok = errResp(fmt.Errorf("transport: unknown verb %q", req.Verb)), true
	}
	dur := time.Since(start)
	vi.lat.Observe(int64(dur))
	if ok && resp.Status == "ERR" {
		vi.errs.Inc()
	}
	if log := d.cfg.Log; log != nil && log.Enabled(context.Background(), slog.LevelDebug) {
		log.Debug("verb served",
			"verb", req.Verb, "session", req.Session, "status", resp.Status,
			"dur", dur, "err", resp.Err)
	}
	return resp, ok
}

func (d *Dispatcher) lookup(id int, cs *ConnState) (*hostSession, error) {
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

func (d *Dispatcher) serveREQ(req Request, cs *ConnState, submit ShardSubmitter) (Response, bool) {
	if req.Ref == nil {
		return errResp(errors.New("transport: REQ needs a workload reference")), true
	}
	w, err := workloads.FromRef(*req.Ref)
	if err != nil {
		return errResp(err), true
	}
	spec := w.Spec(req.Rank)
	kind := req.Plane
	if kind == "" {
		kind = cs.DefaultPlane
	}
	if kind == "" {
		kind = PlaneShm
	}
	switch kind {
	case PlaneShm, PlaneInline:
	case PlaneRing:
		if d.cfg.Rings == nil {
			return errResp(fmt.Errorf("transport: data plane %q needs a ring:// listener, and this daemon has none (want %q or %q)", kind, PlaneShm, PlaneInline)), true
		}
	default:
		return errResp(fmt.Errorf("transport: unknown data plane %q (want %q, %q or %q)", kind, PlaneShm, PlaneInline, PlaneRing)), true
	}

	// Admission + placement: the node picks the shard once, here; every
	// later verb for the session routes straight to it. Owner phase: open
	// the gvm session (direct staging: the owner only accounts virtual
	// time, payload bytes never move on it). A shard that faults between
	// the two fails the open on its own account: place again without it.
	var (
		shard int
		mgr   *gvm.Manager
		v     *vgpu.VGPU
		verr  error
		vms   float64
	)
	for {
		if shard, err = d.cfg.Node.Place(spec.InBytes, spec.OutBytes); err != nil {
			return errResp(err), true
		}
		mgr = d.cfg.Node.Shard(shard).Mgr
		ok := submit(shard, func(p *sim.Proc) {
			v, verr = vgpu.ConnectOpts(p, mgr, spec, vgpu.Opts{
				Direct: true, MemQuota: req.MemQuota, Priority: req.Priority, Weight: req.Weight,
			})
			vms = p.Now().Milliseconds()
		})
		if ok && verr == nil {
			break
		}
		d.cfg.Node.Release(shard, spec.InBytes, spec.OutBytes)
		if !ok {
			return Response{}, false
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
		id: v.Session(), v: v, shard: shard,
		inB: spec.InBytes, outB: spec.OutBytes,
		owner: cs, met: d.met,
		ref: *req.Ref, rank: req.Rank,
	}
	name := fmt.Sprintf("%s-%d", d.cfg.SegPrefix, s.id)
	if kind == PlaneRing {
		s.plane, err = d.cfg.Rings.newPlane(name, s.id, shard, mgr, s.inB, s.outB, func() { d.ringReleased(s) })
	} else {
		s.plane, err = NewHostPlane(kind, d.cfg.ShmDir, name, s.inB, s.outB)
	}
	// Owner phase: the plane becomes the session's pinned staging; a
	// failure so far unwinds like a release.
	if err == nil && !submit(shard, func(p *sim.Proc) { err = s.bindStaging(mgr, d.cfg.Functional) }) {
		// No verb ever ran on the session, so nothing can touch the
		// mapping this unmaps.
		_ = s.plane.Close()
		d.cfg.Node.Release(shard, s.inB, s.outB)
		return Response{}, false
	}
	if err != nil {
		submit(shard, func(p *sim.Proc) { d.closeOwner(p, s) })
		return errResp(err), true
	}
	d.publish(s, cs)
	if rp, ok := s.plane.(*ringHostPlane); ok {
		rp.rs.Register(rp.sess)
	}
	return Response{
		Status:    "ACK",
		Session:   s.id,
		Plane:     s.plane.Kind(),
		Segment:   s.plane.Segment(),
		InBytes:   spec.InBytes,
		OutBytes:  spec.OutBytes,
		VirtualMS: vms,
	}, true
}

// publish makes a fully opened session addressable by its connection.
func (d *Dispatcher) publish(s *hostSession, cs *ConnState) {
	d.mu.Lock()
	d.sessions[s.id] = s
	d.mu.Unlock()
	cs.owned = append(cs.owned, s.id)
}

// ringReleased is the ring-RLS counterpart of releaseOwner: gvm already
// tore the session down, so only dispatcher bookkeeping remains. It runs on the owner goroutine (from the
// session's DirectNotify); the connection's owned list is left alone —
// HangUp tolerates ids that have left the session table.
func (d *Dispatcher) ringReleased(s *hostSession) {
	d.mu.Lock()
	if cur := d.sessions[s.id]; cur != s {
		d.mu.Unlock()
		return
	}
	delete(d.sessions, s.id)
	d.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	shard := s.shard
	s.mu.Unlock()
	d.cfg.Node.Release(shard, s.inB, s.outB)
}

func (d *Dispatcher) serveVerb(req Request, cs *ConnState, submit ShardSubmitter) (Response, bool) {
	s, err := d.lookup(req.Session, cs)
	if err != nil {
		return errResp(err), true
	}
	// Failover on touch: if the session's shard has been marked for
	// evacuation, move the session before dispatching — the verb then
	// runs on the healthy target instead of bouncing.
	d.rescueIfUnhealthy(s, submit)
	if req.Verb == "SND" {
		if err := s.copyIn(&req); err != nil {
			return errResp(err), true
		}
	}
	resp := Response{Status: "ACK", Session: s.id}
	var verr error
	s.migMu.Lock()
	shard, _ := s.loc()
	if !submit(shard, func(p *sim.Proc) {
		if cur, _ := s.loc(); cur != shard {
			// Unreachable while migMu pins the placement; kept as a
			// tripwire for future call paths that skip the lock.
			verr = errors.New(gvm.Retryable("transport: session migrated during dispatch"))
			return
		}
		verr = d.ownerVerb(p, s, req.Verb)
		resp.VirtualMS = p.Now().Milliseconds()
	}) {
		s.migMu.Unlock()
		return Response{}, false
	}
	s.migMu.Unlock()
	if verr != nil {
		r := errResp(verr)
		r.VirtualMS = resp.VirtualMS
		return r, true
	}
	switch req.Verb {
	case "RCV":
		if err := s.copyOut(&resp); err != nil {
			return errResp(err), true
		}
	case "RLS":
		cs.dropOwned(s.id)
	}
	return resp, true
}

// ownerVerb is the owner-side phase of one data verb: pure simulation
// state and virtual time, no payload bytes. SND and RCV run the vgpu
// calls with nil buffers — only the virtual host-copy sleeps remain,
// because direct sessions skip gvm's segment copies too.
func (d *Dispatcher) ownerVerb(p *sim.Proc, s *hostSession, verb string) error {
	switch verb {
	case "SND":
		return s.v.SendInput(p, nil)
	case "STR":
		if err := s.v.Start(p); err != nil {
			return err
		}
		s.started = true
		return nil
	case "STP":
		// The owner drains the calendar after every flush, so by the
		// time an STP arrives execution has finished in virtual time.
		if !s.started {
			return errors.New("transport: STP before STR")
		}
		if err := s.v.Wait(p); err != nil {
			return err
		}
		s.started = false
		return nil
	case "RCV":
		return s.v.ReceiveOutput(p, nil)
	case "RLS":
		d.releaseOwner(p, s)
		return nil
	case "SUS":
		return s.v.Suspend(p)
	case "RES":
		return s.v.Resume(p)
	default:
		return fmt.Errorf("transport: unknown verb %q", verb)
	}
}

// serveBAT runs a pipelined verb batch: every sub-verb's connection phase
// plus one owner round trip PER RUN of consecutive same-shard steps, so a
// full SPMD cycle (SND+STR+STP+RCV) against one session costs a single
// submission instead of four. A batch addressing sessions on several
// shards submits once per contiguous same-shard run, in batch order.
func (d *Dispatcher) serveBAT(req Request, cs *ConnState, submit ShardSubmitter) (Response, bool) {
	if len(req.Batch) == 0 {
		return errResp(errors.New("transport: empty BAT")), true
	}
	type step struct {
		req  Request
		s    *hostSession
		resp Response
		err  error
		ran  bool
	}
	steps := make([]step, len(req.Batch))
	lastRank := make(map[int]int, 2)
	for i := range req.Batch {
		sub := req.Batch[i]
		rank, err := BatchStepRank(&sub, lastRank[sub.Session])
		if err != nil {
			return errResp(err), true
		}
		s, err := d.lookup(sub.Session, cs)
		if err != nil {
			return errResp(err), true
		}
		lastRank[sub.Session] = rank
		// Inner steps count against their own verb series too, so a
		// scrape's SND/STR/STP/RCV counters reflect protocol traffic
		// whether or not the client pipelines.
		d.met.verb(sub.Verb).reqs.Inc()
		steps[i] = step{req: sub, s: s}
	}
	d.met.batSteps.Observe(int64(len(steps)))

	// Failover on touch, once per distinct session in the batch. Sessions
	// belong to exactly one connection and a connection serves one frame
	// at a time, so no two in-flight batches share a session — locking
	// the migMus in batch order below cannot deadlock against another
	// batch (migrate only ever holds one).
	uniq := make([]*hostSession, 0, len(lastRank))
	seenSess := make(map[int]bool, len(lastRank))
	for i := range steps {
		if s := steps[i].s; !seenSess[s.id] {
			seenSess[s.id] = true
			uniq = append(uniq, s)
		}
	}
	for _, s := range uniq {
		d.rescueIfUnhealthy(s, submit)
	}

	// Connection phase: stage every SND payload into pinned memory.
	limit := len(steps)
	for i := range steps {
		if steps[i].req.Verb == "SND" {
			if err := steps[i].s.copyIn(&steps[i].req); err != nil {
				steps[i].err = err
				limit = i
				break
			}
		}
	}

	// Owner phase: one submission per contiguous same-shard run of staged
	// steps, stopping the whole batch at the first failure. Every
	// session's migMu is held across the phase so its placement cannot
	// change between the shard snapshot and the owner closure running.
	for _, s := range uniq {
		s.migMu.Lock()
	}
	unlock := func() {
		for _, s := range uniq {
			s.migMu.Unlock()
		}
	}
	shardOf := make(map[int]int, len(uniq))
	for _, s := range uniq {
		sh, _ := s.loc()
		shardOf[s.id] = sh
	}
	var vms float64
	failed := false
	for i := 0; i < limit && !failed; {
		j := i
		shard := shardOf[steps[i].s.id]
		for j < limit && shardOf[steps[j].s.id] == shard {
			j++
		}
		lo, hi := i, j
		if !submit(shard, func(p *sim.Proc) {
			for k := lo; k < hi; k++ {
				st := &steps[k]
				st.ran = true
				st.err = d.ownerVerb(p, st.s, st.req.Verb)
				st.resp.VirtualMS = p.Now().Milliseconds()
				if st.err != nil {
					failed = true
					break
				}
			}
			vms = p.Now().Milliseconds()
		}) {
			unlock()
			return Response{}, false
		}
		i = j
	}
	unlock()

	// Connection phase: collect RCV results, finish RLS bookkeeping,
	// assemble per-step responses.
	out := Response{Status: "ACK", VirtualMS: vms, Batch: make([]Response, len(steps))}
	for i := range steps {
		st := &steps[i]
		sub := &out.Batch[i]
		sub.Session = st.req.Session
		sub.VirtualMS = st.resp.VirtualMS
		switch {
		case st.err != nil:
			sub.Status = "ERR"
			sub.Err = st.err.Error()
			d.met.verb(st.req.Verb).errs.Inc()
		case !st.ran:
			sub.Status = "ERR"
			sub.Err = "transport: skipped after earlier BAT failure"
		default:
			sub.Status = "ACK"
			switch st.req.Verb {
			case "RCV":
				if err := st.s.copyOut(sub); err != nil {
					sub.Status = "ERR"
					sub.Err = err.Error()
				}
			case "RLS":
				cs.dropOwned(st.req.Session)
			}
		}
	}
	return out, true
}

// releaseOwner tears one session down. Owning-shard owner-goroutine
// side: unpublish first so no new connection phase can find it, then
// close it.
func (d *Dispatcher) releaseOwner(p *sim.Proc, s *hostSession) {
	d.mu.Lock()
	cur, live := d.sessions[s.id]
	if live && cur == s {
		delete(d.sessions, s.id)
	}
	d.mu.Unlock()
	if !live || cur != s {
		return // already released
	}
	d.closeOwner(p, s)
}

// closeOwner ends an unpublished session: mark it closed under its mutex
// (waiting out any staging copy in flight), then release the gvm session,
// the data plane and the placement — in that order, on the owner: staging
// aliases a mapped plane's segment, and gvm's RLS returns only once no
// stream operation that could touch it remains.
func (d *Dispatcher) closeOwner(p *sim.Proc, s *hostSession) {
	s.mu.Lock()
	s.closed = true
	plane, v, shard := s.plane, s.v, s.shard
	s.mu.Unlock()
	_ = v.Release(p)
	if plane != nil {
		_ = plane.Close()
	}
	d.cfg.Node.Release(shard, s.inB, s.outB)
}

// HangUp releases every session a disconnected client left open,
// submitting each teardown to its owning shard. Connection-goroutine
// side (servers call it from the connection's cleanup).
func (d *Dispatcher) HangUp(cs *ConnState, submit ShardSubmitter) {
	for _, id := range cs.owned {
		d.mu.RLock()
		s := d.sessions[id]
		d.mu.RUnlock()
		if s != nil && s.owner == cs {
			s.migMu.Lock()
			shard, _ := s.loc()
			submit(shard, func(p *sim.Proc) { d.releaseOwner(p, s) })
			s.migMu.Unlock()
		}
	}
	cs.owned = nil
}

// ReleaseAll tears down every live session on every shard; servers call
// it at shutdown so device memory and file-backed segments are reclaimed.
func (d *Dispatcher) ReleaseAll(submit ShardSubmitter) {
	d.mu.RLock()
	live := make([]*hostSession, 0, len(d.sessions))
	for _, s := range d.sessions {
		live = append(live, s)
	}
	d.mu.RUnlock()
	for _, s := range live {
		s := s
		s.migMu.Lock()
		shard, _ := s.loc()
		submit(shard, func(p *sim.Proc) { d.releaseOwner(p, s) })
		s.migMu.Unlock()
	}
}

// rescueIfUnhealthy migrates s off its shard when the shard is marked
// for evacuation (Unhealthy or Draining). Verb paths call it before
// dispatching so a session on a faulted shard moves at the next client
// touch even if the background evacuation has not reached it yet.
// Failures are logged, not returned: the verb proceeds and reports its
// own (retryable) error.
func (d *Dispatcher) rescueIfUnhealthy(s *hostSession, submit ShardSubmitter) {
	shard, _ := s.loc()
	if !d.cfg.Node.Health(shard).Evacuate() {
		return
	}
	if err := d.migrate(s, submit); err != nil && d.cfg.Log != nil {
		d.cfg.Log.Warn("session failover failed", "session", s.id, "err", err)
	}
}

// EvacuateShard live-migrates every session off shard. The daemon wires
// it to the node's fault handler (and to drain requests) so a shard
// going Unhealthy empties itself in the background; verbs arriving for
// a session mid-move answer retryable errors the client retries.
func (d *Dispatcher) EvacuateShard(shard int, submit ShardSubmitter) {
	d.mu.RLock()
	victims := make([]*hostSession, 0, len(d.sessions))
	for _, s := range d.sessions {
		if sh, _ := s.loc(); sh == shard {
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

// migrate live-migrates one session off its current shard: quiesce and
// extract on the source owner (gvm.Manager.ExtractSession snapshots the
// session's arenas with the suspend machinery), re-place through the
// node's live policy — which only sees healthy shards — adopt on the
// target owner, and atomically remap the session's routing. Verbs that
// race the move answer retryable errors; an interrupted execution cycle
// re-runs on the target, which is byte-identical because kernels are
// deterministic functions of the staged input. If no healthy shard can
// take the session it is re-adopted on the source so teardown keeps
// working, and the error reports the stranding.
func (d *Dispatcher) migrate(s *hostSession, submit ShardSubmitter) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	from := s.shard
	if !d.cfg.Node.Health(from).Evacuate() {
		s.mu.Unlock()
		return nil // another migration already moved it
	}
	s.migrating = true
	rp, _ := s.plane.(*ringHostPlane)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.migrating = false
		s.mu.Unlock()
	}()

	start := time.Now()
	fromMgr := d.cfg.Node.Shard(from).Mgr

	// Source owner: pull a ring session out of its shard's sweep (the
	// in-flight frame, if any, answers a retryable error; the client's
	// mapping stays valid), then quiesce and extract the gvm session.
	var (
		ext  *gvm.ExtractedSession
		xerr error
	)
	if !submit(from, func(p *sim.Proc) {
		if rp != nil {
			rp.sess.detach()
		}
		ext, xerr = fromMgr.ExtractSession(p, s.id)
	}) {
		return errors.New("transport: shutdown during migration")
	}
	if xerr != nil {
		return fmt.Errorf("transport: extract session %d from gpu %d: %w", s.id, from, xerr)
	}

	// adoptOn lands the extracted session on shard: adopt into the gvm
	// manager, bind its staging back onto the data plane (a mapped segment
	// held the truth all along: nothing is copied back), and remap the
	// dispatcher's routing. The ring session's mgr/shard fields are set in
	// the owner closure so the target sweep observes them through the
	// Register happens-before edge.
	adoptOn := func(shard int) error {
		mgr := d.cfg.Node.Shard(shard).Mgr
		var (
			nv   *vgpu.VGPU
			aerr error
		)
		if !submit(shard, func(p *sim.Proc) {
			if nv, aerr = s.adoptOwner(p, mgr, ext, d.cfg.Functional); aerr == nil && rp != nil {
				rp.sess.mgr = mgr
				rp.sess.shard = d.cfg.Rings.Shard(shard)
			}
		}) {
			return errors.New("transport: shutdown during migration")
		}
		if aerr != nil {
			return aerr
		}
		s.mu.Lock()
		s.v = nv
		s.shard = shard
		if rp != nil {
			rp.rs = d.cfg.Rings.Shard(shard)
		}
		s.mu.Unlock()
		if rp != nil {
			d.cfg.Rings.Shard(shard).Register(rp.sess)
		}
		return nil
	}

	to, perr := d.cfg.Node.Place(s.inB, s.outB)
	if perr != nil {
		// Nowhere healthy to go: park the session back on the source so
		// release paths still reclaim its memory, and report the strand.
		if rerr := adoptOn(from); rerr != nil {
			return fmt.Errorf("transport: session %d stranded: placement: %v; re-adopt on gpu %d: %v",
				s.id, perr, from, rerr)
		}
		return fmt.Errorf("transport: no healthy shard for session %d: %w", s.id, perr)
	}
	if aerr := adoptOn(to); aerr != nil {
		d.cfg.Node.Release(to, s.inB, s.outB)
		if rerr := adoptOn(from); rerr != nil {
			return fmt.Errorf("transport: session %d stranded: adopt on gpu %d: %v; re-adopt on gpu %d: %v",
				s.id, to, aerr, from, rerr)
		}
		return fmt.Errorf("transport: adopt session %d on gpu %d: %w", s.id, to, aerr)
	}
	d.cfg.Node.Release(from, s.inB, s.outB)
	if rp != nil {
		// The client's ring header still names the source shard's door;
		// forward its rings to the adopting shard so the target owner
		// wakes on new submissions.
		d.cfg.Rings.Shard(from).Forward(d.cfg.Rings.Shard(to).Door())
	}

	d.met.failovers.Inc()
	d.met.migratedBytes.Add(ext.Bytes())
	d.met.migLatencyNS.Observe(int64(time.Since(start)))
	if d.cfg.Log != nil {
		d.cfg.Log.Info("session failover",
			"session", s.id, "from", from, "to", to,
			"bytes", ext.Bytes(), "rerun", ext.Rerun)
	}
	return nil
}

// OpenSessions returns the number of live dispatcher sessions.
func (d *Dispatcher) OpenSessions() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.sessions)
}
