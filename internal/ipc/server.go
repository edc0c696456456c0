package ipc

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
)

// ServerConfig configures a daemon.
type ServerConfig struct {
	// Listen is the set of transport addresses to serve:
	// "unix:///tmp/gvmd.sock", "tcp://:7070", "inproc://name". A daemon
	// may listen on several at once; sessions from every transport share
	// the one manager (and its STR barrier).
	Listen     []string
	Arch       fermi.Arch // zero value: Tesla C2070
	Parties    int        // STR barrier width (default 1)
	Functional bool       // carry real data end to end
	ShmDir     string     // shm data-plane directory ("" = /dev/shm)
	// ExecWorkers sizes the functional kernel-execution worker pool
	// (gpusim.Config.ExecWorkers): 0 = GOMAXPROCS, 1 = serial.
	ExecWorkers int
	// GPUs is the number of per-GPU manager shards the daemon runs
	// (default 1). Each shard is an independent sim.Env + device +
	// gvm.Manager behind its own owner lock, so shards serve verbs in
	// parallel; Parties is the STR barrier width of EACH shard.
	GPUs int
	// Placement must be "" or node.LeastSessions, the one policy; any
	// other name fails NewServer. It is kept only because bench/gvmload
	// sets it, and goes when the benchmark stops passing it.
	Placement string
	// MaxSessionBytes caps one session's staging footprint
	// (InBytes+OutBytes); REQ beyond the limit is rejected with a clear
	// error. 0 = no per-session limit.
	MaxSessionBytes int64
	// Overcommit is the quota-admission factor (gvmd -overcommit): each
	// GPU admits sessions while their reserved bytes stay within
	// Overcommit x its device capacity, relying on the managers' eviction
	// engine to page idle sessions to host snapshots. 0 or 1 = classic
	// fit-or-reject admission.
	Overcommit float64
	// BarrierTimeout flushes a partial STR batch after this much virtual
	// time, so a crashed client cannot wedge the daemon (0 = strict).
	// Caveat: the daemon drains virtual time eagerly after every request,
	// so virtual time races far ahead of wall time and an armed timeout
	// fires during the next drain — with a timeout set, barrier batching
	// effectively degrades to per-request flushing. Use it as a liveness
	// guard, not as a grace period.
	BarrierTimeout sim.Duration
	// FaultPlan, when non-nil, installs seeded fault injectors on the
	// shards' launch paths (gvmd -fault-inject). Injected faults escalate
	// shard health; Unhealthy shards are evacuated automatically by live
	// session migration.
	FaultPlan *gpusim.FaultPlan
	// Metrics is the registry shared by the manager, the dispatcher and
	// the server's own connection instruments; a /metrics scrape of it
	// covers the whole daemon path. nil creates a private one.
	Metrics *metrics.Registry
	// Slog receives structured logging: one Debug line per verb served,
	// one Info line per barrier flush, and an Error line per simulation
	// error, bad preamble or frame read error. nil disables it.
	Slog *slog.Logger
}

// Server is the gvmd daemon: it owns a node of per-GPU manager shards
// and serves the six-verb protocol to real OS processes over any set of
// transports (unix, tcp, inproc, ring). All verb handling lives in
// package transport (one frame engine behind the socket Dispatcher and
// the RingHost); each shard's simulation is owned by whoever holds that
// shard's lock — a connection handler takes a turn (turn) for its own
// frame and serves it on its own stack — so the deterministic
// single-threaded discipline of each simulator is preserved under
// concurrent clients while distinct shards run in parallel.
type Server struct {
	cfg ServerConfig
	lns []transport.Listener

	owner []sync.Mutex // per shard: its holder is the shard's owner for one turn
	// Shutdown is two steps. stop closes first and fails every turn a
	// connection or the failover engine is waiting out or takes from then on
	// (submit) — a frame parked at the STR barrier would otherwise hold its
	// session, and the release below, forever. quit closes once every
	// session is released and ends the ring owner loops.
	stop chan struct{}
	quit chan struct{}

	node  *node.Node
	disp  *transport.Dispatcher
	rings *transport.RingHost // non-nil when a ring:// listener is bound

	met serverMetrics

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// serverMetrics are the server's own connection-layer instruments; the
// managers' and dispatcher's series live in the same shared registry.
type serverMetrics struct {
	connections *metrics.Gauge       // live client connections
	disconnects *metrics.Counter     // connections that have ended
	frameErrors *metrics.Counter     // bad preambles, non-EOF read errors
	queueWaitNS []*metrics.Histogram // per shard: wall ns a submit waited for the shard's lock
}

// NewServer creates and starts a daemon listening on every address in
// cfg.Listen.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Arch.SMs == 0 {
		cfg.Arch = fermi.TeslaC2070()
	}
	if cfg.Parties == 0 {
		cfg.Parties = 1
	}
	if len(cfg.Listen) == 0 {
		return nil, errors.New("ipc: no listen address (set Listen)")
	}
	// The node places with the one policy; this only refuses another name.
	if _, err := node.NewPlacer(cfg.Placement, "GPU"); err != nil {
		return nil, err
	}
	var lns []transport.Listener
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for _, addr := range cfg.Listen {
		ln, err := transport.ListenAddr(addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("ipc: listen %s: %w", addr, err)
		}
		lns = append(lns, ln)
	}
	if cfg.GPUs == 0 {
		cfg.GPUs = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s := &Server{
		cfg:  cfg,
		lns:  lns,
		stop: make(chan struct{}),
		quit: make(chan struct{}),
		met: serverMetrics{
			connections: cfg.Metrics.Gauge("ipc_connections", "live client connections"),
			disconnects: cfg.Metrics.Counter("ipc_disconnects_total", "client connections ended"),
			frameErrors: cfg.Metrics.Counter("ipc_frame_errors_total", "bad preambles and non-EOF frame read errors"),
		},
	}
	n, err := node.New(node.Config{
		GPUs:            cfg.GPUs,
		Arch:            cfg.Arch,
		Functional:      cfg.Functional,
		ExecWorkers:     cfg.ExecWorkers,
		Parties:         cfg.Parties,
		MaxSessionBytes: cfg.MaxSessionBytes,
		Overcommit:      cfg.Overcommit,
		BarrierTimeout:  cfg.BarrierTimeout,
		FaultPlan:       cfg.FaultPlan,
		Metrics:         cfg.Metrics,
		Log:             cfg.Slog,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	s.node = n
	if err := n.Start(); err != nil { // bring every shard's manager up
		closeAll()
		return nil, err
	}
	// A ring:// listener turns the ring control plane on: the daemon lays
	// a doorbell segment out and runs a sweep loop per shard (ringOwner)
	// beside the connections' own turns.
	for _, ln := range lns {
		if ln.DefaultPlane() == transport.PlaneRing {
			rh, rerr := transport.NewRingHost(transport.RingHostConfig{
				ShmDir:  cfg.ShmDir,
				Shards:  n.NumShards(),
				Metrics: cfg.Metrics,
			})
			if rerr != nil {
				closeAll()
				return nil, rerr
			}
			s.rings = rh
			break
		}
	}
	s.disp = transport.NewDispatcher(transport.DispatcherConfig{
		Node:       n,
		Functional: cfg.Functional,
		ShmDir:     cfg.ShmDir,
		Metrics:    cfg.Metrics,
		Log:        cfg.Slog,
		Rings:      s.rings,
	})
	s.owner = make([]sync.Mutex, n.NumShards())
	s.met.queueWaitNS = make([]*metrics.Histogram, n.NumShards())
	for i := range s.owner {
		s.met.queueWaitNS[i] = cfg.Metrics.Histogram("gvmd_owner_queue_wait_ns",
			"wall ns a submission waited for its turn as the shard's simulation owner",
			metrics.L("gpu", strconv.Itoa(i)))
	}
	// Failover: a shard escalating to a state that demands evacuation
	// (Unhealthy after a hang/fatal fault, or Draining) hands every one
	// of its sessions to the dispatcher's live-migration engine. The
	// handler fires mid-escalation, inside a turn on the shard, so the
	// evacuation — which takes turns itself — runs in the background.
	n.SetFaultHandler(func(shard int, h node.HealthState) {
		if !h.Evacuate() {
			return
		}
		go s.disp.EvacuateShard(shard, s.submit)
	})
	s.wg.Add(len(lns))
	if s.rings != nil {
		s.wg.Add(n.NumShards())
		for i := 0; i < n.NumShards(); i++ {
			go s.ringOwner(i)
		}
	}
	for _, ln := range lns {
		go s.accept(ln)
	}
	return s, nil
}

// Node returns the daemon's shard layer: per-GPU managers plus their
// placement. Tests and stats consumers address shards explicitly
// (there is no "the device" on a multi-GPU daemon).
func (s *Server) Node() *node.Node { return s.node }

// DrainAll gracefully decommissions the whole node: every shard stops
// taking placements at once. gvmd triggers it on SIGUSR1. Intra-node
// failover has nowhere to go, so sessions keep serving in place; a
// fronting gvmfed sees the node report itself unplaceable and
// live-migrates the sessions to other nodes.
func (s *Server) DrainAll() {
	s.node.DrainAll()
}

// Addr returns the first listener's address in URL form (Dial accepts
// it directly).
func (s *Server) Addr() string { return s.lns[0].Addr() }

// Addrs returns every bound listener address in URL form, in the order
// configured — useful with tcp://...:0, where the OS picks the port.
func (s *Server) Addrs() []string {
	addrs := make([]string, len(s.lns))
	for i, ln := range s.lns {
		addrs[i] = ln.Addr()
	}
	return addrs
}

// Close shuts the daemon down, releasing every live session so device
// memory and file-backed shm segments are reclaimed (unix listeners
// unlink their socket files as they close).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var err error
	for _, ln := range s.lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	close(s.stop)
	// Barrier: a turn re-checks stop under its shard's lock, so once every
	// lock has been through our hands no connection's or failover's turn is
	// running or will start: the shards are the releases' and the ring loops'.
	for i := range s.owner {
		s.owner[i].Lock()
		s.owner[i].Unlock()
	}
	// Tear down sessions abandoned by still-connected clients before the
	// ring owners stop, so every shard's segments and device memory are freed.
	s.disp.ReleaseAll(func(shard int, start func(), done <-chan struct{}) bool {
		return s.submitUntil(s.quit, shard, start, done)
	})
	close(s.quit)
	if s.rings != nil {
		// Kick every parked owner loop out of its futex wait so shutdown
		// does not ride out a park slice.
		s.rings.RingAll()
	}
	s.wg.Wait()
	if s.rings != nil {
		// The owner loops have stopped and no turn runs anymore; reclaim
		// every remaining session segment and the doorbell segment.
		if rerr := s.rings.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// turn makes the calling goroutine shard's simulation owner for one
// iteration — the caller's work, a sweep of the shard's session rings on a
// ring daemon, the calendar run dry — under the shard's lock, so the simulator
// stays single-threaded per shard and nothing is handed to another goroutine.
// end is re-checked under the lock: ok is false, and nothing ran, if it had
// closed. swept reports whether the ring sweep made progress.
func (s *Server) turn(end <-chan struct{}, shard int, start func()) (ok, swept bool) {
	mu := &s.owner[shard]
	if start == nil {
		mu.Lock()
	} else {
		asked := time.Now()
		mu.Lock()
		s.met.queueWaitNS[shard].Observe(int64(time.Since(asked)))
	}
	defer mu.Unlock()
	select {
	case <-end:
		return false, false
	default:
	}
	env := s.node.Shard(shard).Env
	run := func() {
		if err := env.Run(); err != nil {
			if s.cfg.Slog != nil {
				s.cfg.Slog.Error("simulation error", "gpu", shard, "err", err)
			}
		}
	}
	if start != nil {
		start()
		run()
	}
	// After the work, so that a ring session the work retired (a socket RLS,
	// a hang-up) is unmapped by this very turn: the ring owner may be parked.
	if s.rings != nil && s.rings.Shard(shard).Sweep() {
		swept = true
		run() // verbs charge their virtual cost as calendar events
	}
	return true, swept
}

// ringOwner is a ring daemon's per-shard sweep loop: it takes turns with no
// work of its own until one comes back dry, then spins briefly and finally
// parks on the shard doorbell itself. The futex wait is bounded and the next
// turn re-checks quit, so a parked loop still sees shutdown (Close rings
// every doorbell after closing quit) — clients ring the doorbell after every
// ring submission, so a parked loop wakes in one futex round trip while a
// busy one never syscalls. Socket work does not pass through here: a
// connection takes its own turn.
func (s *Server) ringOwner(shard int) {
	defer s.wg.Done()
	door := s.rings.Shard(shard).Door()
	const spinBudget = 128
	idle := 0
	for {
		ok, swept := s.turn(s.quit, shard, nil)
		if !ok {
			return
		}
		if swept {
			idle = 0
			continue
		}
		if idle++; idle < spinBudget {
			runtime.Gosched()
			continue
		}
		idle = 0
		// Arm the doorbell's sleep bit, then re-check: a submission
		// published before the bit was visible must not be slept past.
		armed := shm.DoorArm(door)
		if ok, swept = s.turn(s.quit, shard, nil); !ok {
			return
		}
		if !swept {
			shm.DoorSleep(door, armed, 100*time.Millisecond)
		}
		shm.DoorDisarm(door)
	}
}

// submit is the daemon's transport.ShardSubmitter: the one way onto a shard.
func (s *Server) submit(shard int, start func(), done <-chan struct{}) bool {
	return s.submitUntil(s.stop, shard, start, done)
}

// submitUntil takes a turn on shard for start and then, the lock released,
// waits for done — only when the work did not finish inside its own turn (a
// frame parked at the STR barrier is finished by a peer's) — or for end.
func (s *Server) submitUntil(end <-chan struct{}, shard int, start func(), done <-chan struct{}) bool {
	if ok, _ := s.turn(end, shard, start); !ok {
		return false
	}
	select {
	case <-done:
		return true
	default:
	}
	select {
	case <-done:
		return true
	case <-end:
		return false
	}
}

func (s *Server) accept(ln transport.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Connection handlers are not tracked by wg: a handler may be
		// parked at the STR barrier waiting for peers, and Close must
		// not wait for it.
		go s.serveConn(conn, ln.DefaultPlane())
	}
}

func (s *Server) serveConn(nc net.Conn, defaultPlane string) {
	if err := transport.ReadPreamble(nc); err != nil {
		if errors.Is(err, io.EOF) {
			nc.Close()
			return
		}
		if s.cfg.Slog != nil {
			s.cfg.Slog.Error("bad preamble", "err", err)
		}
		s.met.frameErrors.Inc()
		transport.RejectConn(nc)
		return
	}
	conn := transport.NewConn(nc)
	s.met.connections.Inc()
	defer func() {
		conn.Close()
		// This goroutine is the connection's only reader and its read
		// loop has exited, so the pooled read buffer can go back.
		conn.Release()
		s.met.connections.Dec()
		s.met.disconnects.Inc()
	}()
	cs := &transport.ConnState{DefaultPlane: defaultPlane}
	defer func() {
		// Release sessions the client abandoned, each on its own shard.
		s.disp.HangUp(cs, s.submit)
	}()
	for {
		req, err := conn.ReadRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				if s.cfg.Slog != nil {
					s.cfg.Slog.Error("frame read", "err", err)
				}
				s.met.frameErrors.Inc()
			}
			return
		}
		// The dispatcher runs payload staging here, outside the shard's
		// lock, and takes a turn only for the frame's owner-side phase, so
		// the critical section stays O(scheduling), not O(bytes).
		resp, ok := s.disp.Serve(req, cs, s.submit)
		if !ok {
			return
		}
		if err := conn.WriteResponse(resp); err != nil {
			return
		}
	}
}
