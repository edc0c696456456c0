// Package fed is the two-level federation layer: a router (the heart of
// cmd/gvmfed) that fronts N gvmd nodes over the existing transports and
// speaks the same six-verb protocol to clients, so a worker pointed at
// gvmfed cannot tell it from a single gvmd.
//
// Placement is hierarchical: each backend node answers the router's STA
// poll with its shards folded into one node-level Load (a binary load
// record), and the router runs the SAME node.Placer the daemon itself
// uses for shards — the router picks the node, the node's own placer picks
// the GPU. Every session gets its own
// sticky backend connection: REQ opens it, later frames — each one
// session's verbs, checked by the daemon's own frame rule
// (transport.FrameSteps) before the router looks the session up — are
// proxied over it whole with the pooled zero-copy framing (the warm proxy
// hop allocates nothing), and STR barriers on one session can never block
// another session's traffic.
//
// Failover extends PR9's live migration across nodes. When a backend
// drains (SIGUSR1 → whole node) the router extracts each session via
// MIG on its sticky connection, re-places it through the node-level
// placer, and adopts it on the survivor with ADP — same virtual session
// id, so the client never notices. When a backend dies outright the
// state is gone; the router answers the in-flight verbs with retryable
// errors, re-creates the session from its recorded REQ parameters on a
// surviving node, and the client's jittered retry loop replays the
// cycle (pipelined clients re-stage input in the same BAT; the cycle is
// deterministic, so the replay is byte-identical).
package fed

import (
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// Config configures a Router.
type Config struct {
	// Backends are the gvmd nodes to front, in URL form (tcp://host:port,
	// unix:///path, inproc://name). At least one.
	Backends []string
	// Placement must be "" or node.LeastSessions, the one policy. It is
	// kept only because bench/gvmload sets it.
	Placement string
	// PollInterval is the load-report poll period (default 200ms).
	PollInterval time.Duration
	// Metrics receives the fed_* series. nil creates a private registry.
	Metrics *metrics.Registry
	// Log, when non-nil, receives routing and failover events.
	Log *slog.Logger
}

// nodeState is one backend's position in the router's state machine.
// States only escalate: a drained node is being evacuated, a dead one
// is unreachable. (A restarted backend is a new, empty daemon — the
// router's session state for it is gone either way.)
type nodeState int32

const (
	stateAlive nodeState = iota
	stateDraining
	stateDead
)

func (s nodeState) String() string {
	switch s {
	case stateAlive:
		return "alive"
	case stateDraining:
		return "draining"
	default:
		return "dead"
	}
}

// backend is one fronted gvmd node.
type backend struct {
	idx  int
	addr string

	// sessions is the fed_placed_sessions{node} gauge — the router's own
	// count of sessions currently routed to this backend (fresher than
	// the polled load report).
	sessions *metrics.Gauge
	// bytes is the staging footprint the router has placed here.
	bytes atomic.Int64

	mu    sync.Mutex
	state nodeState
	// polled is the node-level Load the node last reported (zero until
	// the first successful poll).
	polled node.Load
	// bytesAtPoll/sessionsAtPoll snapshot the router's own counters at
	// the moment polled was taken, so load() can correct the report
	// by the DELTA placed since the poll. Correcting by the absolute
	// counters would assume every session on the backend is ours —
	// wrong the moment the node also serves direct clients or a second
	// router, whose bytes would then inflate the computed headroom past
	// the report.
	bytesAtPoll    int64
	sessionsAtPoll int64
	// ctl is the polling connection (lazily dialed, redialed on error).
	ctl *transport.Conn
}

func (b *backend) getState() nodeState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// load folds the backend's last load report and the router's own
// placement counters into one node-level Load for the Placer. The
// router's counters correct the report's staleness: sessions placed (or
// released) THROUGH THIS ROUTER since the last poll move the headroom
// before the next poll confirms it. Only the delta since the poll is
// applied — the report already accounts for everything on the node at
// poll time, including sessions the router never placed.
func (b *backend) load() node.Load {
	b.mu.Lock()
	l := b.polled
	st := b.state
	bytesAtPoll, sessionsAtPoll := b.bytesAtPoll, b.sessionsAtPoll
	b.mu.Unlock()
	l.Shard = b.idx
	bytesDelta := b.bytes.Load() - bytesAtPoll
	l.MemFree = max(l.MemFree-bytesDelta, 0)
	l.Bytes = max(l.Bytes+bytesDelta, 0)
	l.Sessions = max(l.Sessions+b.sessions.Value()-sessionsAtPoll, 0)
	switch st {
	case stateDraining:
		l.Health = max(l.Health, node.Draining)
	case stateDead:
		l.Health = node.Unhealthy
	}
	return l
}

// fedSession is the router-side state of one client session: the
// virtual id the client sees, the backend currently hosting it, and the
// session's sticky backend connection. mu serializes everything that
// touches the session — verb forwarding, migration, re-creation — so a
// verb never races the session between nodes.
type fedSession struct {
	vid   int
	owner *clientConn

	mu     sync.Mutex
	b      *backend
	realID int
	conn   *transport.Conn
	// placed reports whether the session currently holds a reservation in
	// b's counters (false between losing a backend and landing on the
	// next one).
	placed bool
	closed bool

	// REQ parameters, kept for dead-backend re-creation.
	ref      workloads.Ref
	rank     int
	memQuota int64
	priority int
	weight   int
	inB      int64
	outB     int64

	// staged reports whether the CURRENT backend incarnation of the
	// session holds the client's staging intact. True from REQ — a fresh
	// session legitimately computes on zero-filled staging, exactly like
	// a direct gvmd — and refreshed by SND. Only a dead-node re-creation
	// clears it: results and staged input died with the node, so verbs
	// that need input answer retryable errors until the client re-stages
	// (a pipelined client's replayed BAT leads with SND and sails
	// through).
	staged bool
}

// clientConn identifies one accepted client connection; sessions are
// owned by the connection that opened them, like the daemon's ConnState.
type clientConn struct {
	owned []int
}

func (cc *clientConn) dropOwned(vid int) {
	for i, o := range cc.owned {
		if o == vid {
			cc.owned = append(cc.owned[:i], cc.owned[i+1:]...)
			return
		}
	}
}

// fedMetrics are the router's registry-backed instruments, built once.
type fedMetrics struct {
	proxyLat      map[string]*metrics.Histogram // fed_proxy_latency_ns{verb}
	otherLat      *metrics.Histogram
	failovers     *metrics.Counter
	migratedBytes *metrics.Counter
}

func (fm *fedMetrics) lat(verb string) *metrics.Histogram {
	if h := fm.proxyLat[verb]; h != nil {
		return h
	}
	return fm.otherLat
}

// Router is the federation front: it accepts client connections, places
// REQs across backends, and proxies session verbs over sticky backend
// connections.
type Router struct {
	cfg    Config
	placer *node.Placer
	met    *fedMetrics

	backends []*backend

	// placeMu makes select-and-reserve atomic across concurrent REQs.
	placeMu sync.Mutex

	mu       sync.Mutex
	sessions map[int]*fedSession
	nextVID  int
	closed   bool

	lns  []transport.Listener
	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a router fronting cfg.Backends. Call Start to bind
// listeners and begin polling.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fed: no backends configured")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	placer, err := node.NewPlacer(cfg.Placement, "node")
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	reg := cfg.Metrics
	r := &Router{
		cfg:      cfg,
		placer:   placer,
		sessions: make(map[int]*fedSession),
		quit:     make(chan struct{}),
	}
	r.met = &fedMetrics{
		proxyLat: make(map[string]*metrics.Histogram),
		failovers: reg.Counter("fed_failovers_total",
			"sessions moved off draining or dead backend nodes (migrations plus re-creations)"),
		migratedBytes: reg.Counter("fed_migrated_bytes_total",
			"bytes moved by cross-node session migration (MIG blobs)"),
	}
	for _, v := range []string{"REQ", "BAT", "SND", "STR", "STP", "RCV", "RLS"} {
		r.met.proxyLat[v] = reg.Histogram("fed_proxy_latency_ns",
			"wall-clock backend round-trip time through the proxy", metrics.L("verb", v))
	}
	r.met.otherLat = reg.Histogram("fed_proxy_latency_ns",
		"wall-clock backend round-trip time through the proxy", metrics.L("verb", "other"))
	for i, addr := range cfg.Backends {
		b := &backend{
			idx:  i,
			addr: addr,
			sessions: reg.Gauge("fed_placed_sessions",
				"sessions the router has placed on the backend node", metrics.L("node", strconv.Itoa(i))),
		}
		r.backends = append(r.backends, b)
	}
	for _, st := range []nodeState{stateAlive, stateDraining, stateDead} {
		st := st
		reg.GaugeFunc("fed_nodes", "backend nodes by state", func() int64 {
			var n int64
			for _, b := range r.backends {
				if b.getState() == st {
					n++
				}
			}
			return n
		}, metrics.L("state", st.String()))
	}
	return r, nil
}

// Start polls every backend once (so placement has capacity data before
// the first REQ), binds the listen addresses, and begins serving.
func (r *Router) Start(listen []string) error {
	if len(listen) == 0 {
		return fmt.Errorf("fed: no listen addresses")
	}
	for _, b := range r.backends {
		r.pollBackend(b)
	}
	for _, addr := range listen {
		ln, err := transport.ListenAddr(addr)
		if err != nil {
			for _, l := range r.lns {
				l.Close()
			}
			return fmt.Errorf("fed: listen %s: %w", addr, err)
		}
		r.lns = append(r.lns, ln)
	}
	for _, ln := range r.lns {
		ln := ln
		r.wg.Add(1)
		go r.accept(ln)
	}
	r.wg.Add(1)
	go r.pollLoop()
	return nil
}

// Addr returns the first bound listener address in URL form.
func (r *Router) Addr() string { return r.lns[0].Addr() }

// Addrs returns every bound listener address in URL form.
func (r *Router) Addrs() []string {
	addrs := make([]string, len(r.lns))
	for i, ln := range r.lns {
		addrs[i] = ln.Addr()
	}
	return addrs
}

// Close shuts the router down: listeners close, every session's sticky
// backend connection drops (the backend daemons release the sessions on
// hang-up, exactly as if the clients had disconnected).
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	live := make([]*fedSession, 0, len(r.sessions))
	for _, s := range r.sessions {
		live = append(live, s)
	}
	r.mu.Unlock()
	close(r.quit)
	var err error
	for _, ln := range r.lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	for _, s := range live {
		s.mu.Lock()
		if !s.closed {
			s.closed = true
			if s.conn != nil {
				_ = s.conn.Close()
			}
		}
		s.mu.Unlock()
	}
	for _, b := range r.backends {
		b.mu.Lock()
		if b.ctl != nil {
			_ = b.ctl.Close()
			b.ctl = nil
		}
		b.mu.Unlock()
	}
	r.wg.Wait()
	return err
}

// nodeLoads snapshots every backend's node-level Load in index order.
func (r *Router) nodeLoads() []node.Load {
	loads := make([]node.Load, len(r.backends))
	for i, b := range r.backends {
		loads[i] = b.load()
	}
	return loads
}

// markDead escalates a backend to dead (idempotent). Sessions routed to
// it are re-created lazily on their next verb; in-flight verbs answer
// retryable errors the clients replay.
func (r *Router) markDead(b *backend, cause error) {
	b.mu.Lock()
	was := b.state
	b.state = stateDead
	if b.ctl != nil {
		_ = b.ctl.Close()
		b.ctl = nil
	}
	b.mu.Unlock()
	if was != stateDead && r.cfg.Log != nil {
		r.cfg.Log.Warn("backend node dead", "node", b.idx, "addr", b.addr, "cause", cause)
	}
}

// register publishes a new session under a fresh virtual id.
func (r *Router) register(s *fedSession) int {
	r.mu.Lock()
	r.nextVID++
	s.vid = r.nextVID
	r.sessions[s.vid] = s
	r.mu.Unlock()
	return s.vid
}

// lookup resolves a virtual session id for a client connection, with
// the same ownership rule as the daemon.
func (r *Router) lookup(vid int, cc *clientConn) (*fedSession, error) {
	r.mu.Lock()
	s := r.sessions[vid]
	r.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("fed: unknown session %d", vid)
	}
	if s.owner != cc {
		return nil, fmt.Errorf("fed: session %d belongs to another connection", vid)
	}
	return s, nil
}

// place picks a backend for a footprint and reserves it in the
// backend's counters immediately — concurrent placements must see each
// other before any backend round trip completes, exactly like
// node.Place one level down. Callers release a reservation they cannot
// use with unplace.
func (r *Router) place(footprint int64) (*backend, error) {
	r.placeMu.Lock()
	defer r.placeMu.Unlock()
	idx, err := r.placer.Select(r.nodeLoads(), footprint)
	if err != nil {
		return nil, err
	}
	b := r.backends[idx]
	b.sessions.Inc()
	b.bytes.Add(footprint)
	return b, nil
}

// unplace returns a reservation taken by place.
func (r *Router) unplace(b *backend, footprint int64) {
	b.sessions.Dec()
	b.bytes.Add(-footprint)
}

// attachLocked binds a session to its (new) backend incarnation; the
// caller already holds the reservation from place. Caller holds s.mu.
func (s *fedSession) attachLocked(b *backend, realID int, conn *transport.Conn) {
	s.b, s.realID, s.conn = b, realID, conn
	s.placed = true
}

// dropBackendLocked severs a session from its current backend: the
// sticky connection closes and the reservation returns to the backend's
// counters. Idempotent; caller holds s.mu. releaseBuf hands the sticky
// connection's pooled read buffer back — pass false when a just-read
// response's Data is still in flight to the client (it aliases that
// buffer), letting the GC reclaim it instead.
func (r *Router) dropBackendLocked(s *fedSession, releaseBuf bool) {
	if s.conn != nil {
		_ = s.conn.Close()
		if releaseBuf {
			s.conn.Release()
		}
		s.conn = nil
	}
	if s.placed {
		s.placed = false
		r.unplace(s.b, s.inB+s.outB)
	}
}

// unregisterLocked removes a released (or lost) session entirely.
// Caller holds s.mu.
func (r *Router) unregisterLocked(s *fedSession, releaseBuf bool) {
	r.mu.Lock()
	delete(r.sessions, s.vid)
	r.mu.Unlock()
	r.dropBackendLocked(s, releaseBuf)
	s.closed = true
}
