// Package gvm implements the paper's contribution: the GPU Virtualization
// Manager, a run-time layer that owns the only GPU context and exposes a
// Virtual GPU (VGPU) to every SPMD process in the node.
//
// Structure (paper Figure 7): the base layer is the manager process, one
// POSIX-style shared-memory segment per client (data plane), and
// request/response message queues (control plane). Clients drive the
// six-verb protocol of Figure 8 — REQ, SND, STR, STP, RCV, RLS — through
// the API layer in package vgpu.
//
// The manager pre-initializes the device and its single context, so
// clients never pay Tinit; it gives each client a dedicated CUDA stream
// and pinned staging buffers; and it barriers STR requests from all
// parties before flushing every stream at once, so Fermi's concurrent
// kernel execution and copy/compute overlap apply *across* processes.
//
// A session is one of two kinds, fixed when it opens. A queue session is
// the paper's model — REQ on the request queue, a reply queue, the
// manager's own segment, every message hop charged in virtual time — and
// is what the simulation (vgpu, spmd, the experiments) drives. A daemon
// session is what gvmd's front-ends hold for a real client: opened,
// released, extracted and adopted through plain owner-side calls
// (OpenSession, ReleaseSession, ExtractSession, AdoptSession), staging in
// caller-owned memory, verbs through DirectVerb with outcomes on a notify
// hook. Both run the same verb engine (serve → admit → dispatch): they
// differ only in how time is charged (a process sleep or a calendar
// event) and in where the outcome goes.
package gvm

import (
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"sort"
	"strconv"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/trace"
)

// Verb is a protocol request type (paper Figure 8).
type Verb int

// The six protocol verbs.
const (
	REQ Verb = iota // request VGPU resources
	SND             // input data is in shared memory; stage it
	STR             // start execution (barriered across parties)
	STP             // query execution status
	RCV             // copy results back to shared memory
	RLS             // release resources
)

var verbNames = [...]string{"REQ", "SND", "STR", "STP", "RCV", "RLS", "SUS", "RES"}

func (v Verb) String() string {
	if v < 0 || int(v) >= len(verbNames) {
		return fmt.Sprintf("Verb(%d)", int(v))
	}
	return verbNames[v]
}

// ParseVerb is the inverse of Verb.String over the same name table.
func ParseVerb(name string) (Verb, bool) {
	for v, n := range verbNames {
		if n == name {
			return Verb(v), true
		}
	}
	return 0, false
}

// Status is a protocol response code.
type Status int

// Response codes: ACK (done), WAIT (execution still in flight), ERR.
const (
	ACK Status = iota
	WAIT
	ERR
)

func (s Status) String() string {
	switch s {
	case ACK:
		return "ACK"
	case WAIT:
		return "WAIT"
	default:
		return "ERR"
	}
}

// Request is a control-plane message from a client to the manager.
type Request struct {
	Session int
	Verb    Verb
	Spec    *task.Spec       // REQ only
	Reply   *Queue[Response] // REQ only; later requests use the session's queue
	// MemQuota (REQ only) is a hard per-session device-memory limit in
	// bytes, enforced at every Malloc the session performs (HAMi-style).
	// 0 means unlimited.
	MemQuota int64
	// Priority (REQ only) orders eviction victims: lower-priority
	// sessions are evicted first when the device cannot fit an
	// allocation. Equal priorities fall back to LRU. 0 is the default.
	Priority int
	// Weight (REQ only) is the session's share of SM compute time
	// relative to co-resident sessions, and its precedence for
	// concurrent-kernel-window admission and wave-boundary preemption.
	// 0 derives the weight from Priority (max(1, Priority+1)); explicit
	// values are clamped to [1, gpusim.MaxLaunchWeight]. 1 everywhere
	// reproduces the unweighted scheduler exactly.
	Weight int
}

// Response is a control-plane message from the manager to a client.
type Response struct {
	Status  Status
	Session int
	Err     string
}

// Config configures a manager.
type Config struct {
	// Device is the one GPU this manager owns. A manager manages exactly
	// one device (the paper's design: one GVM, one context, one GPU);
	// multi-GPU nodes run one manager per device behind package node's
	// placement layer.
	Device *gpusim.Device
	// GPUIndex identifies this manager's device within a multi-shard
	// node. It labels every manager metric series (gpu="<index>") so
	// shards sharing a registry stay distinguishable, and prefixes error
	// messages. 0 on a single-GPU node.
	GPUIndex int
	// SessionIDStride namespaces session ids when several managers share
	// one client-visible id space: manager GPUIndex of a stride-N node
	// hands out GPUIndex+1, GPUIndex+1+N, GPUIndex+1+2N, ... so no two
	// shards ever mint the same id. 0 or 1 means the usual 1,2,3,...
	SessionIDStride int
	// Parties is the STR barrier width: the number of SPMD processes
	// whose STR requests are synchronized before all streams flush
	// together — on a multi-shard node, the width of THIS shard's
	// barrier. 1 disables barrier batching.
	Parties int
	// HostCopyBW is host memcpy bandwidth (bytes/s) for client<->shm and
	// shm<->pinned staging copies. Default 24 GB/s (dual-socket X5560
	// aggregate memcpy, matching the paper's node).
	HostCopyBW float64
	// MsgLatency is the one-way control-message latency. Default 20 us.
	MsgLatency sim.Duration
	// ResourceSetup is the manager-side cost of REQ handling (stream,
	// buffer and kernel preparation). Default 300 us.
	ResourceSetup sim.Duration
	// BlockingSTP makes the manager defer the STP response until the
	// stream completes instead of answering WAIT (an ablation of the
	// paper's poll-based handshake).
	BlockingSTP bool
	// PinnedStaging uses pinned host staging buffers (the paper's
	// design). Disabling it is an ablation: pageable staging transfers
	// more slowly and, on real hardware, would forbid async overlap.
	PinnedStaging bool
	// MaxSessionBytes caps the aggregate shared-memory (and staging)
	// footprint of live sessions; REQ beyond the cap is rejected. The
	// paper: "the shared memory size is user-customizable to ensure the
	// total size does not exceed the GPU memory size". 0 defaults to the
	// device's memory size, scaled by Overcommit.
	MaxSessionBytes int64
	// Overcommit scales the default MaxSessionBytes quota (the node's
	// -overcommit factor): under overcommit the manager hosts more
	// sessions than fit the card, paging idle arenas to host snapshots,
	// so the aggregate staging cap must grow in step. Values <= 1 (and 0)
	// leave the classic device-sized default.
	Overcommit float64
	// BarrierTimeout bounds how long buffered STR requests wait for the
	// remaining parties. When it expires the manager flushes the partial
	// batch, so a crashed SPMD rank cannot wedge the node. 0 disables
	// the timeout (strict barrier, the paper's behaviour).
	BarrierTimeout sim.Duration
	// FlushPolicy orders the sessions within a barrier batch when their
	// streams flush (extension; the paper flushes in STR arrival order).
	FlushPolicy FlushPolicy
	Tracer      *trace.Tracer
	// Metrics receives the manager's instruments. nil creates a private
	// registry (reachable via Manager.Metrics()); the daemon passes one
	// shared registry so gvm, transport and ipc series scrape together.
	Metrics *metrics.Registry
	// Log, when non-nil, receives one Info line per barrier flush.
	Log *slog.Logger
}

// FlushPolicy orders sessions within a barrier batch.
type FlushPolicy int

const (
	// FlushFIFO flushes in STR arrival order (the paper's behaviour).
	FlushFIFO FlushPolicy = iota
	// FlushSJF flushes the session with the smallest estimated cost
	// first: under heterogeneous tasks the engine-queue ordering then
	// minimizes mean turnaround, classic shortest-job-first.
	FlushSJF
	// FlushLJF flushes the largest estimated cost first (the
	// anti-policy, for the ablation's upper bound).
	FlushLJF
)

func (f FlushPolicy) String() string {
	switch f {
	case FlushFIFO:
		return "fifo"
	case FlushSJF:
		return "sjf"
	case FlushLJF:
		return "ljf"
	default:
		return fmt.Sprintf("FlushPolicy(%d)", int(f))
	}
}

// estimateCost scores a session's cycle for flush ordering: transfer
// time at pageable bandwidth plus modeled compute time at device peak.
func (m *Manager) estimateCost(s *session) float64 {
	arch := m.dev.Arch()
	sec := arch.TransferTime(s.spec.InBytes, true, true).Seconds() +
		arch.TransferTime(s.spec.OutBytes, false, true).Seconds()
	peak := float64(arch.TotalCores()) * arch.ClockHz
	for _, k := range s.kernels {
		sec += k.TotalWorkCycles() / peak
	}
	return sec
}

func (c Config) withDefaults() Config {
	if c.HostCopyBW == 0 {
		c.HostCopyBW = 24e9
	}
	if c.MsgLatency == 0 {
		c.MsgLatency = 20 * sim.Microsecond
	}
	if c.ResourceSetup == 0 {
		c.ResourceSetup = 300 * sim.Microsecond
	}
	if c.Parties == 0 {
		c.Parties = 1
	}
	return c
}

// Manager is the GPU Virtualization Manager run-time process: one
// manager, one device, one context (a "shard" of a multi-GPU node).
type Manager struct {
	env *sim.Env
	cfg Config
	dev *gpusim.Device
	ctx *gpusim.Context

	req      *Queue[Request]
	ready    *sim.Event
	sessions map[int]*session
	nextID   int // last id handed out; advances by the id stride

	strPending []*session // sessions buffered at the STR barrier
	strScratch []*session // retired barrier array recycled by direct flushes
	strGen     uint64     // invalidates stale barrier-timeout timers
	shmInUse   int64      // aggregate session footprint against the quota

	reg *metrics.Registry
	met managerMetrics
	log *slog.Logger
}

// managerMetrics are the manager's registry-backed instruments. They are
// mutated only on the owner goroutine, but being atomics they can be
// read from any goroutine — tests, gvmbench and the /metrics scraper —
// without tripping the race detector.
type managerMetrics struct {
	requests        *metrics.Counter
	sessionsOpened  *metrics.Counter
	sessionsClosed  *metrics.Counter
	flushes         *metrics.Counter
	barrierTimeouts *metrics.Counter
	suspensions     *metrics.Counter
	resumes         *metrics.Counter
	evictions       *metrics.Counter
	restores        *metrics.Counter
	swapOutBytes    *metrics.Counter
	swapInBytes     *metrics.Counter
	openSessions    *metrics.Gauge
	barrierWaitNS   *metrics.Histogram
	// turnaroundNS aggregates STR->completion virtual time across all
	// sessions of this shard; the SLO placement policy reads its p99.
	turnaroundNS *metrics.Histogram
}

// session is the manager-side state of one VGPU (one client process).
type session struct {
	id      int
	spec    *task.Spec
	reply   *Queue[Response] // nil: a daemon session (outcomes go to notify)
	seg     shm.Segment      // queue sessions only
	devIn   cuda.DevPtr
	devOut  cuda.DevPtr
	scratch []cuda.DevPtr
	pinIn   *gpusim.HostBuffer
	pinOut  *gpusim.HostBuffer
	stream  *gpusim.Stream
	kernels []*cuda.Kernel

	running    bool
	done       bool
	strArrived sim.Time  // when this session's STR joined the barrier
	stpWaiting bool      // an STP answer is owed at stream completion
	footprint  int64     // bytes counted against the manager's quota
	susp       *snapshot // non-nil while suspended (extension verbs SUS/RES)

	// Failover state. failed records the first device fault that hit
	// this session's kernels; while set, every verb except RLS answers a
	// retryable error until the failover engine migrates the session to
	// a healthy shard (migration clears it — the cycle re-runs there).
	// rerunPending marks an adopted session whose interrupted cycle
	// still needs re-running here: AdoptSession could not materialize it
	// immediately, so the transparent-restore gate performs the flush on
	// the next verb.
	failed       error
	rerunPending bool

	// Residency-layer state: a session's device reservation (devBytes,
	// the rounded bytes it logically holds) outlives eviction — evicted
	// means the manager moved the arena to the host snapshot to make
	// room, and the next SND/STR/RCV restores it transparently. A
	// client-driven SUS sets susp but not evicted: it still requires an
	// explicit RES.
	evicted  bool
	lastUsed sim.Time // LRU clock for victim selection
	priority int      // lower evicts first (Request.Priority)
	weight   int      // SM compute-time share (Request.Weight, normalized)
	memQuota int64    // hard Malloc-time limit, 0 = unlimited
	devBytes int64    // logical device bytes reserved by this session

	// Prebound per-weight-class instruments (label class="<weight
	// rounded down to a power of two>", so cardinality stays bounded).
	launches    *metrics.Counter   // gpusim_sched_launches_total
	turnClassNS *metrics.Histogram // gvm_turnaround_class_ns

	// Prebound flush sequence (H2D, kernels, D2H) and completion callback,
	// built once at REQ so steady-state flushes enqueue stream work without
	// allocating a closure or event per operation.
	ops      []func(p *sim.Proc)
	finishCB func()

	// A daemon session's control surface (Manager.BindDirect): verb
	// outcomes fire notify instead of travelling a reply queue.
	notify  DirectNotify
	sndDone func() // prebound SND copy-completion
	rcvDone func() // prebound RCV copy-completion
}

// New creates a manager bound to a device. Call Start to bring it up.
func New(env *sim.Env, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	if cfg.Device == nil {
		panic("gvm: Config.Device is required")
	}
	if !cfg.PinnedStaging && cfg.Device.Arch().ConcurrentCopyExec {
		// Pageable staging is allowed (ablation) but flagged in traces.
		cfg.trace("gvm", "pageable staging (ablation)", env.Now(), env.Now())
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	stride := cfg.SessionIDStride
	if stride < 1 {
		stride = 1
	}
	m := &Manager{
		env:      env,
		cfg:      cfg,
		dev:      cfg.Device,
		req:      NewQueue[Request](env, 0, cfg.MsgLatency),
		ready:    env.NewEvent(),
		sessions: make(map[int]*session),
		nextID:   cfg.GPUIndex + 1 - stride, // first id handed out is GPUIndex+1
		reg:      reg,
		log:      cfg.Log,
	}
	// Every manager series carries a gpu label so N shards sharing one
	// registry stay distinguishable in a single /metrics scrape.
	gl := metrics.L("gpu", strconv.Itoa(cfg.GPUIndex))
	m.met = managerMetrics{
		requests:        reg.Counter("gvm_requests_total", "requests received by the manager", gl),
		sessionsOpened:  reg.Counter("gvm_sessions_opened_total", "sessions provisioned by REQ", gl),
		sessionsClosed:  reg.Counter("gvm_sessions_closed_total", "sessions torn down by RLS", gl),
		flushes:         reg.Counter("gvm_flushes_total", "barrier batch flushes", gl),
		barrierTimeouts: reg.Counter("gvm_barrier_timeouts_total", "partial flushes forced by BarrierTimeout", gl),
		suspensions:     reg.Counter("gvm_suspensions_total", "sessions suspended (SUS)", gl),
		resumes:         reg.Counter("gvm_resumes_total", "sessions resumed (RES)", gl),
		evictions:       reg.Counter("gvm_evictions_total", "sessions evicted to host snapshots to make room", gl),
		restores:        reg.Counter("gvm_restores_total", "evicted sessions restored on their next verb", gl),
		swapOutBytes:    reg.Counter("gvm_swap_bytes_total", "bytes moved between device arenas and host snapshots", gl, metrics.L("dir", "out")),
		swapInBytes:     reg.Counter("gvm_swap_bytes_total", "bytes moved between device arenas and host snapshots", gl, metrics.L("dir", "in")),
		openSessions:    reg.Gauge("gvm_open_sessions", "live sessions", gl),
		barrierWaitNS:   reg.Histogram("gvm_barrier_wait_ns", "virtual ns each session waited at the STR barrier", gl),
		turnaroundNS:    reg.Histogram("gvm_turnaround_ns", "virtual ns from STR arrival to cycle completion", gl),
	}
	dev := m.dev
	reg.CounterFunc("gpusim_preemptions_total", "wave-boundary preemptions (kernels demoted from the concurrent-kernel window for a higher-weight kernel)",
		func() int64 { return dev.Preemptions() }, gl)
	reg.GaugeFunc("gvm_mem_in_use_bytes", "device memory allocated to sessions",
		func() int64 { return dev.MemInUse() }, gl)
	reg.GaugeFunc("gvm_resident_bytes", "session bytes physically resident in device memory",
		func() int64 { return dev.MemResident() }, gl)
	reg.GaugeFunc("gvm_reserved_bytes", "logical session bytes reserved (may exceed capacity under overcommit)",
		func() int64 { return dev.MemReserved() }, gl)
	return m
}

// Metrics returns the registry holding the manager's instruments (the
// one from Config.Metrics, or the private one created in its absence).
func (m *Manager) Metrics() *metrics.Registry { return m.reg }

// Requests returns how many requests the manager has received.
func (m *Manager) Requests() int { return int(m.met.requests.Value()) }

// SessionsOpened returns how many sessions REQ has provisioned.
func (m *Manager) SessionsOpened() int { return int(m.met.sessionsOpened.Value()) }

// SessionsClosed returns how many sessions RLS has torn down.
func (m *Manager) SessionsClosed() int { return int(m.met.sessionsClosed.Value()) }

// Flushes returns how many barrier batches have flushed.
func (m *Manager) Flushes() int { return int(m.met.flushes.Value()) }

// BarrierTimeouts returns how many flushes BarrierTimeout forced.
func (m *Manager) BarrierTimeouts() int { return int(m.met.barrierTimeouts.Value()) }

// Suspensions returns how many SUS verbs have completed.
func (m *Manager) Suspensions() int { return int(m.met.suspensions.Value()) }

// Resumes returns how many RES verbs have completed.
func (m *Manager) Resumes() int { return int(m.met.resumes.Value()) }

// Evictions returns how many sessions the manager evicted to make room.
func (m *Manager) Evictions() int { return int(m.met.evictions.Value()) }

// Restores returns how many evicted sessions were restored lazily.
func (m *Manager) Restores() int { return int(m.met.restores.Value()) }

func (c Config) trace(lane, label string, start, end sim.Time) {
	if c.Tracer != nil {
		c.Tracer.Add(lane, label, start, end)
	}
}

// Env returns the manager's simulation environment.
func (m *Manager) Env() *sim.Env { return m.env }

// Device returns the managed device.
func (m *Manager) Device() *gpusim.Device { return m.dev }

// GPUIndex returns this manager's device index within its node (the
// value of every manager series' gpu label).
func (m *Manager) GPUIndex() int { return m.cfg.GPUIndex }

// MintSessionID advances the manager's striped id counter and returns a
// fresh session id. REQ mints through it; the cross-node adoption path
// also calls it to re-id an ExtractedSession whose source-node id may
// collide with a live local one. Owner-goroutine side (it mutates
// manager state), like AdoptSession.
func (m *Manager) MintSessionID() int {
	stride := m.cfg.SessionIDStride
	if stride < 1 {
		stride = 1
	}
	m.nextID += stride
	return m.nextID
}

// Ready fires once the manager has initialized the device, created its
// single GPU context, and begun serving requests. Clients connecting
// earlier simply queue.
func (m *Manager) Ready() *sim.Event { return m.ready }

// RequestQueue returns the manager's request queue; clients send REQ here.
func (m *Manager) RequestQueue() *Queue[Request] { return m.req }

// MsgLatency returns the configured control-message hop latency.
func (m *Manager) MsgLatency() sim.Duration { return m.cfg.MsgLatency }

// HostCopyTime returns the virtual time for a host memcpy of n bytes.
func (m *Manager) HostCopyTime(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / m.cfg.HostCopyBW * 1e9)
}

// Start spawns the manager process: device + context initialization (the
// only Tinit in the system, which clients never pay), then the request
// service loop.
func (m *Manager) Start() {
	m.env.Go("gvm", func(p *sim.Proc) {
		start := p.Now()
		m.ctx = m.dev.CreateContext(p)
		// The manager holds its device for its whole lifetime: all work
		// flows through the one context, so no context switches ever
		// occur (paper Section IV.B.2).
		m.ctx.Acquire(p)
		// Residency layer: when an allocation cannot fit, the allocator
		// asks the manager to evict an idle session's arena to a host
		// snapshot and retries. The callback runs inside Malloc, charging
		// the evacuation on the clock of the process that called it.
		m.dev.SetEvictor(m.evictForAlloc)
		m.cfg.trace("gvm", "init", start, p.Now())
		m.ready.Fire(nil)
		p.Daemonize()
		for {
			req := m.req.Recv(p)
			m.met.requests.Inc()
			m.handle(p, req)
		}
	})
}

// handle services one request on the manager's clock.
func (m *Manager) handle(p *sim.Proc, r Request) {
	if r.Verb == REQ {
		m.handleREQ(p, r)
		return
	}
	s, ok := m.sessions[r.Session]
	if !ok {
		// A client bug; when the request carries a reply queue, answer so
		// the caller does not park forever (otherwise it surfaces as a
		// timeout in the caller's own test).
		if r.Reply != nil {
			r.Reply.Send(p, Response{Status: ERR, Session: r.Session,
				Err: Retryable(fmt.Sprintf("gvm: unknown session %d on gpu %d", r.Session, m.cfg.GPUIndex))})
		}
		return
	}
	m.serve(p, s, r.Verb)
}

// serve runs one verb on a live session: the admission gate, a transparent
// restore when the gate asks for one, then the verb itself. It is the one
// verb engine behind both surfaces. The queue surface calls it with the
// manager's process, which sleeps through every virtual cost; the daemon
// surface (DirectVerb) calls it with p == nil and must not block, so costs
// become calendar events and anything that has to wait — a restore, a
// release, a suspend — runs on a transient process.
func (m *Manager) serve(p *sim.Proc, s *session, verb Verb) {
	s.lastUsed = m.env.Now()
	errMsg, restore := m.admit(s, verb)
	switch {
	case errMsg != "":
		s.answer(p, verb, ERR, errMsg)
	case restore:
		// Manager-driven eviction is transparent: restore the arena before
		// serving the verb, waiting out pressure from running sessions.
		// Failure (device still full, nothing evictable, nothing running)
		// leaves the snapshot intact so the verb can be retried.
		m.onProc(p, "gvm-restore", func(p *sim.Proc) {
			if err := m.restoreWithBackoff(p, s); err != nil {
				s.answer(p, verb, ERR, err.Error())
				return
			}
			m.dispatch(p, s, verb)
		})
	default:
		m.dispatch(p, s, verb)
	}
}

// admit is the gate every verb passes before it is served. It returns the
// error that bounces the verb — the device faulted under the session's
// kernels (everything but RLS, retryable until the failover engine has
// moved the session), or the client suspended the session and owes an
// explicit RES — or else whether an evicted arena must be restored first.
func (m *Manager) admit(s *session, verb Verb) (errMsg string, restore bool) {
	if s.failed != nil && verb != RLS {
		return retryableSessionErr(s.id, m.cfg.GPUIndex, s.failed), false
	}
	needsArena := verb == SND || verb == STR || verb == RCV || (verb == STP && s.rerunPending)
	if s.susp == nil || !needsArena {
		return "", false
	}
	if !s.evicted {
		return fmt.Sprintf("gvm: %v on suspended session %d", verb, s.id), false
	}
	return "", true
}

// dispatch performs one admitted verb on a resident (or needing no arena)
// session: the (state, verb) function of the protocol.
func (m *Manager) dispatch(p *sim.Proc, s *session, verb Verb) {
	// Adopted mid-cycle: replay or cancel the interrupted flush now that
	// the arena is materialized, then serve the verb (an STP that
	// triggered a replay waits for it like for any running flush).
	m.gateRerun(s, verb)
	switch verb {
	case SND:
		if s.reply != nil {
			m.handleSND(p, s)
		} else {
			m.after(m.HostCopyTime(s.spec.InBytes), s.sndDone)
		}
	case STR:
		m.handleSTR(p, s)
	case STP:
		m.handleSTP(p, s)
	case RCV:
		switch {
		case !s.done:
			s.answer(p, RCV, ERR, "gvm: RCV before completion")
		case s.reply != nil:
			m.handleRCV(p, s)
		default:
			m.after(m.HostCopyTime(s.spec.OutBytes), s.rcvDone)
		}
	case RLS:
		m.onProc(p, "gvm-rls", func(p *sim.Proc) {
			notify := s.notify // teardown detaches it; the ack is its last call
			if !m.release(p, s) {
				return // ReleaseSession got there while this one waited
			}
			if notify != nil {
				notify(RLS, ACK, "")
			} else {
				s.answer(p, RLS, ACK, "")
			}
		})
	case SUS:
		m.onProc(p, "gvm-sus", func(p *sim.Proc) { s.settle(p, SUS, m.suspend(p, s)) })
	case RES:
		m.onProc(p, "gvm-res", func(p *sim.Proc) { s.settle(p, RES, m.resume(p, s)) })
	default:
		s.answer(p, verb, ERR, fmt.Sprintf("gvm: unknown verb %v", verb))
	}
}

// onProc runs fn on p when the caller has a process, and on a transient
// one when it has none (the daemon surface, which must not block).
func (m *Manager) onProc(p *sim.Proc, name string, fn func(p *sim.Proc)) {
	if p != nil {
		fn(p)
		return
	}
	m.env.Go(name, fn)
}

// after charges d of virtual time as a calendar event ending in fn.
func (m *Manager) after(d sim.Duration, fn func()) {
	if d > 0 {
		m.env.After(d, fn)
	} else {
		fn()
	}
}

// answer delivers a verb's outcome where the session's kind wants it: a
// queue session's as a message on its reply queue, the hop charged on p's
// clock; a daemon session's through its notify hook (p may be nil).
func (s *session) answer(p *sim.Proc, verb Verb, st Status, errMsg string) {
	if s.reply == nil {
		s.tell(verb, st, errMsg)
		return
	}
	s.reply.Send(p, Response{Status: st, Session: s.id, Err: errMsg})
}

// settle answers ACK, or ERR when errMsg names a failure.
func (s *session) settle(p *sim.Proc, verb Verb, errMsg string) {
	st := ACK
	if errMsg != "" {
		st = ERR
	}
	s.answer(p, verb, st, errMsg)
}

// handleREQ serves REQ on the queue surface.
func (m *Manager) handleREQ(p *sim.Proc, r Request) {
	if r.Spec == nil || r.Reply == nil {
		if r.Reply != nil {
			r.Reply.Send(p, Response{Status: ERR, Err: "gvm: REQ needs Spec and Reply"})
		}
		return
	}
	s, err := m.open(p, r)
	if err != nil {
		r.Reply.Send(p, Response{Status: ERR, Err: err.Error()})
		return
	}
	r.Reply.Send(p, Response{Status: ACK, Session: s.id})
}

// OpenSession provisions a daemon session on the caller's process p (which
// pays the REQ's resource-setup time) and returns its id: r carries the
// Spec and the REQ options and no Reply. The session has no staging memory
// and takes no verbs until BindDirect gives it both. Owner-goroutine side.
func (m *Manager) OpenSession(p *sim.Proc, r Request) (int, error) {
	if r.Spec == nil || r.Reply != nil {
		return 0, errors.New("gvm: OpenSession needs a Spec and takes no Reply queue")
	}
	m.met.requests.Inc()
	s, err := m.open(p, r)
	if err != nil {
		return 0, err
	}
	return s.id, nil
}

// ReleaseSession ends a daemon session from outside the verb stream (a
// hang-up, an unwound open, shutdown), waiting out whatever still uses its
// buffers exactly as RLS does. It reports whether this call was the one
// that released it. Owner-goroutine side, on the caller's process.
func (m *Manager) ReleaseSession(p *sim.Proc, id int) bool {
	s, ok := m.sessions[id]
	return ok && m.release(p, s)
}

// open provisions a VGPU: device buffers, pinned staging, a dedicated
// stream, the prepared kernel sequence and — for a queue session — its
// shared-memory segment.
func (m *Manager) open(p *sim.Proc, r Request) (*session, error) {
	start := p.Now()
	p.Sleep(m.cfg.ResourceSetup)
	footprint := r.Spec.InBytes + r.Spec.OutBytes
	quota := m.cfg.MaxSessionBytes
	if quota == 0 {
		quota = m.dev.Arch().MemBytes
		if m.cfg.Overcommit > 1 {
			quota = int64(m.cfg.Overcommit * float64(quota))
		}
	}
	if m.shmInUse+footprint > quota {
		return nil, fmt.Errorf(
			"gvm: gpu %d session quota exceeded: %d bytes live + %d requested > %d",
			m.cfg.GPUIndex, m.shmInUse, footprint, quota)
	}
	s := &session{
		id: m.MintSessionID(), spec: r.Spec, reply: r.Reply,
		memQuota: r.MemQuota, priority: r.Priority, lastUsed: p.Now(),
		weight: sessionWeight(r),
	}
	m.bindClassMetrics(s)
	dev := m.dev
	daemon := r.Reply == nil
	if !daemon {
		s.seg = shm.NewMemory(footprint, dev.Functional())
	}
	m.shmInUse += footprint
	s.footprint = footprint

	// All of a session's device allocations flow through its quota
	// allocator: it enforces the hard MemQuota at Malloc time and keeps
	// the device's reserved-bytes gauge in step with what the session
	// logically holds (the reservation survives eviction).
	alloc := &sessionAllocator{m: m, s: s}
	fail := func(err error) (*session, error) {
		m.teardown(s)
		return nil, err
	}
	var err error
	if r.Spec.InBytes > 0 {
		if s.devIn, err = alloc.Malloc(r.Spec.InBytes); err != nil {
			return fail(err)
		}
	}
	if r.Spec.OutBytes > 0 {
		if s.devOut, err = alloc.Malloc(r.Spec.OutBytes); err != nil {
			return fail(err)
		}
	}
	s.pinIn = m.newStaging(r.Spec.InBytes, daemon, nil)
	s.pinOut = m.newStaging(r.Spec.OutBytes, daemon, nil)
	if r.Spec.Build != nil {
		b := &task.Buffers{In: s.devIn, Out: s.devOut, Alloc: alloc, Scratch: &s.scratch}
		if s.kernels, err = r.Spec.Build(b); err != nil {
			return fail(err)
		}
		for _, k := range s.kernels {
			if err := k.Validate(dev.Arch()); err != nil {
				return fail(err)
			}
		}
	}
	s.stream = m.ctx.NewStream()
	m.prepareOps(s)
	m.sessions[s.id] = s
	m.met.sessionsOpened.Inc()
	m.met.openSessions.Inc()
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("REQ s%d (%s)", s.id, r.Spec.Name), start, p.Now())
	}
	return s, nil
}

// bindClassMetrics prebinds the session's weight-class instruments so the
// hot path pays no map lookups; the registry is idempotent, so sessions of
// one class on one shard share a series.
func (m *Manager) bindClassMetrics(s *session) {
	cl := metrics.L("class", strconv.Itoa(weightClass(s.weight)))
	gl := metrics.L("gpu", strconv.Itoa(m.cfg.GPUIndex))
	s.launches = m.reg.Counter("gpusim_sched_launches_total", "kernel launches by weight class", gl, cl)
	s.turnClassNS = m.reg.Histogram("gvm_turnaround_class_ns", "virtual ns from STR arrival to cycle completion, by weight class", gl, cl)
}

// newStaging makes one direction's pinned staging buffer (nil for a
// zero-sized direction). Queue sessions get manager memory; a daemon
// session's is caller-owned (BindDirect), so until the bind it is just
// what an adoption carried over (data) — never an allocation the bind
// would drop.
func (m *Manager) newStaging(n int64, daemon bool, data []byte) *gpusim.HostBuffer {
	if n <= 0 {
		return nil
	}
	if daemon {
		return gpusim.WrapHost(data, m.cfg.PinnedStaging)
	}
	return m.dev.AllocHost(n, m.cfg.PinnedStaging)
}

// handleSND stages a queue session's input from its shared-memory segment
// into the pinned host buffer (paper Figure 8: "Copies Data from Virtual
// Shared Memory to Host Pinned Memory").
func (m *Manager) handleSND(p *sim.Proc, s *session) {
	start := p.Now()
	n := s.spec.InBytes
	p.Sleep(m.HostCopyTime(n))
	if m.dev.Functional() && s.pinIn != nil {
		if err := s.seg.ReadAt(s.pinIn.Data(), 0); err != nil {
			s.reply.Send(p, Response{Status: ERR, Session: s.id, Err: err.Error()})
			return
		}
	}
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("SND s%d %dB", s.id, n), start, p.Now())
	}
	s.reply.Send(p, Response{Status: ACK, Session: s.id})
}

// handleSTR buffers the request at the barrier; when all parties have
// arrived, every buffered session's stream is flushed simultaneously —
// async H2D from pinned memory, the kernel sequence, async D2H — and all
// STRs are acknowledged (paper Figure 8's "Barrier to Synchronize STR
// from All Processes" followed by "Starts Executing All CUDA streams").
// A session parked here simply has no answer yet on either surface.
func (m *Manager) handleSTR(p *sim.Proc, s *session) {
	if s.running {
		s.answer(p, STR, ERR, "gvm: STR while already running")
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
		return // barrier: wait for the remaining parties
	}
	m.flushBatch(p, false)
}

// armBarrierTimeout arms a timeout for the current barrier generation: if
// the other parties never arrive, the partial batch flushes anyway.
func (m *Manager) armBarrierTimeout() {
	gen := m.strGen
	m.env.After(m.cfg.BarrierTimeout, func() {
		if m.strGen != gen || len(m.strPending) == 0 {
			return
		}
		m.env.Go("gvm-barrier-timeout", func(p *sim.Proc) {
			// Re-check: between this proc being scheduled and it
			// running, the original barrier may have completed and
			// a NEW generation's first STR may now be pending. A
			// stale timer must never flush that newer generation.
			if m.strGen != gen || len(m.strPending) == 0 {
				return
			}
			m.flushBatch(p, true)
		})
	})
}

// flushBatch flushes all sessions buffered at the barrier and ACKs their
// STRs. timedOut marks a partial flush forced by BarrierTimeout. p is nil
// when a daemon session's STR completed the barrier: a manager serves one
// kind of session, so the whole batch is then acknowledged inline through
// notify hooks and no reply hop needs a clock.
func (m *Manager) flushBatch(p *sim.Proc, timedOut bool) {
	batch := m.strPending
	if len(batch) == 0 {
		return
	}
	if p == nil {
		// Nothing parks inside this call, so no second flushBatch can
		// overlap it: recycle the retired array to keep the steady-state
		// daemon cycle allocation-free.
		m.strPending = m.strScratch[:0]
		m.strScratch = batch
	} else {
		// A queue session's ack parks in reply.Send below; a barrier-timeout
		// flush could interleave, so the batch must own its array.
		m.strPending = nil
	}
	m.strGen++
	m.met.flushes.Inc()
	if timedOut {
		m.met.barrierTimeouts.Inc()
	}
	now := m.env.Now()
	for _, bs := range batch {
		m.met.barrierWaitNS.Observe(int64(now - bs.strArrived))
	}
	if m.log != nil {
		m.log.Info("gvm flush",
			"sessions", len(batch), "timed_out", timedOut, "gen", m.strGen)
	}
	switch m.cfg.FlushPolicy {
	case FlushSJF:
		sort.SliceStable(batch, func(i, j int) bool {
			return m.estimateCost(batch[i]) < m.estimateCost(batch[j])
		})
	case FlushLJF:
		sort.SliceStable(batch, func(i, j int) bool {
			return m.estimateCost(batch[i]) > m.estimateCost(batch[j])
		})
	}
	for _, bs := range batch {
		m.flush(bs)
	}
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("STR flush x%d", len(batch)), now, m.env.Now())
	}
	for _, bs := range batch {
		bs.answer(p, STR, ACK, "")
	}
}

// sessionWeight derives a session's compute weight from its REQ: an
// explicit Weight wins; otherwise Priority maps to max(1, Priority+1) so
// the eviction-priority extension PR7 landed doubles as a coarse compute
// weight. The result is clamped to gpusim's launch-weight range.
func sessionWeight(r Request) int {
	w := r.Weight
	if w < 1 {
		w = r.Priority + 1
	}
	if w < 1 {
		w = 1
	}
	if w > gpusim.MaxLaunchWeight {
		w = gpusim.MaxLaunchWeight
	}
	return w
}

// weightClass buckets a weight for metric labels: the largest power of
// two <= weight, so at most 11 classes exist.
func weightClass(w int) int {
	if w < 1 {
		return 1
	}
	return 1 << (bits.Len(uint(w)) - 1)
}

// prepareOps prebinds the session's flush sequence — H2D, the kernel
// chain, D2H — and its completion callback. Building these once at REQ
// keeps every subsequent flush free of per-operation closure and event
// allocations. The copy closures read the session's fields at run time,
// so BindDirect may rebind staging underneath them; the kernel closures
// capture the kernel objects themselves, so a restore that rebuilds
// s.kernels must re-run prepareOps (resumeSession does).
func (m *Manager) prepareOps(s *session) {
	ctx := m.ctx
	if s.spec.InBytes > 0 {
		s.ops = append(s.ops, func(p *sim.Proc) { ctx.MemcpyH2D(p, s.devIn, s.pinIn, s.spec.InBytes) })
	}
	for _, k := range s.kernels {
		k := k
		s.ops = append(s.ops, func(p *sim.Proc) {
			if s.failed != nil {
				return // an earlier op already hit the device fault
			}
			s.launches.Inc()
			done, err := ctx.LaunchAsyncOpts(p, k, gpusim.LaunchOptions{Weight: s.weight})
			if err != nil {
				if _, ok := gpusim.IsFault(err); ok {
					s.failed = err
					return
				}
				// Non-fault launch errors are manager bugs: the kernel was
				// validated at REQ and resources are stream-serialized.
				panic(fmt.Sprintf("gvm: session %d: %v", s.id, err))
			}
			// A hang/fatal fault aborts in-flight kernels by firing their
			// completion events with a *FaultError payload.
			if v := p.Wait(done); v != nil {
				if e, ok := v.(error); ok {
					s.failed = e
				}
			}
		})
	}
	if s.spec.OutBytes > 0 {
		s.ops = append(s.ops, func(p *sim.Proc) { ctx.MemcpyD2H(p, s.pinOut, s.devOut, s.spec.OutBytes) })
	}
	s.finishCB = func() {
		s.running = false
		s.done = true
		if s.failed == nil {
			turn := int64(m.env.Now() - s.strArrived)
			m.met.turnaroundNS.Observe(turn)
			s.turnClassNS.Observe(turn)
		}
		st, errMsg := ACK, ""
		if s.failed != nil {
			// The cycle died on a device fault: answer pending polls with a
			// retryable error so the client backs off while the failover
			// engine migrates the session (the rerun happens there).
			st, errMsg = ERR, retryableSessionErr(s.id, m.cfg.GPUIndex, s.failed)
		}
		if s.stpWaiting {
			s.stpWaiting = false
			if s.reply == nil {
				s.tell(STP, st, errMsg)
				return
			}
			// Reply from a transient process so the response hop happens
			// in virtual time even though the manager loop may be busy.
			m.env.Go("gvm-stp-reply", func(p *sim.Proc) {
				s.answer(p, STP, st, errMsg)
			})
		}
	}
}

// flush enqueues one session's full GPU cycle on its stream; the finish
// callback rides the last operation.
func (m *Manager) flush(s *session) {
	n := len(s.ops)
	if n == 0 {
		s.finishCB()
		return
	}
	for i, op := range s.ops {
		var cb func()
		if i == n-1 {
			cb = s.finishCB
		}
		s.stream.EnqueueCB(op, cb)
	}
}

// handleSTP answers a status query: ACK when the stream has drained,
// otherwise WAIT (the paper's poll) — or, with BlockingSTP and for every
// daemon session, nothing until the stream completes: no WAIT ever crosses
// a daemon front-end.
func (m *Manager) handleSTP(p *sim.Proc, s *session) {
	switch {
	case s.done:
		s.answer(p, STP, ACK, "")
	case !s.running:
		s.answer(p, STP, ERR, "gvm: STP before STR")
	case s.reply == nil || m.cfg.BlockingSTP:
		s.stpWaiting = true
	default:
		s.answer(p, STP, WAIT, "")
	}
}

// handleRCV copies a queue session's results from pinned staging into its
// shared-memory segment (at offset InBytes).
func (m *Manager) handleRCV(p *sim.Proc, s *session) {
	start := p.Now()
	n := s.spec.OutBytes
	p.Sleep(m.HostCopyTime(n))
	if m.dev.Functional() && s.pinOut != nil {
		if err := s.seg.WriteAt(s.pinOut.Data(), s.spec.InBytes); err != nil {
			s.reply.Send(p, Response{Status: ERR, Session: s.id, Err: err.Error()})
			return
		}
	}
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("RCV s%d %dB", s.id, n), start, p.Now())
	}
	s.reply.Send(p, Response{Status: ACK, Session: s.id})
}

// release ends a session for RLS and ReleaseSession. A flush still in
// flight (RLS pipelined behind STR) finishes first: its queued copies and
// launches use the device buffers teardown frees, and staging may alias a
// mapped segment the caller unmaps once the release is acknowledged. So
// does an evacuation or restore another process is still copying. It
// reports false when the other of the two released the session meanwhile.
func (m *Manager) release(p *sim.Proc, s *session) bool {
	if s.stream != nil {
		s.stream.Synchronize(p)
	}
	m.waitSettled(p, s)
	if m.sessions[s.id] != s {
		return false
	}
	m.teardown(s)
	delete(m.sessions, s.id)
	m.met.sessionsClosed.Inc()
	m.met.openSessions.Dec()
	return true
}

// teardown frees a session's device memory and stream.
func (m *Manager) teardown(s *session) {
	// A session released while parked at the STR barrier (a client that
	// hung up mid-cycle) must leave the barrier, or a later flush would
	// drive a torn-down stream.
	for i, bs := range m.strPending {
		if bs == s {
			m.strPending = append(m.strPending[:i], m.strPending[i+1:]...)
			break
		}
	}
	s.notify = nil
	m.freeSessionBuffers(s)
	if s.stream != nil {
		s.stream.Close()
		s.stream = nil
	}
	if s.seg != nil {
		_ = s.seg.Close()
		s.seg = nil
	}
	// The logical reservation is returned whether the arena was resident
	// or sitting in a host snapshot.
	if s.devBytes > 0 {
		m.dev.Unreserve(s.devBytes)
		s.devBytes = 0
	}
	s.susp = nil
	s.evicted = false
	m.shmInUse -= s.footprint
	s.footprint = 0
}

// Staging exposes a session's pinned staging buffers: in receives SND
// payloads before the H2D flush, out holds RCV results after the D2H
// flush. Slices are nil for unknown sessions, timing-only devices,
// zero-sized directions, and daemon sessions nothing has been bound to
// yet. The caller owns synchronization: it must not
// touch in/out while the session's stream is flushing (between STR and a
// completed STP), which the daemon's verb ordering guarantees.
func (m *Manager) Staging(session int) (in, out []byte) {
	s, ok := m.sessions[session]
	if !ok {
		return nil, nil
	}
	if s.pinIn != nil {
		in = s.pinIn.Data()
	}
	if s.pinOut != nil {
		out = s.pinOut.Data()
	}
	return in, out
}

// Segment returns a queue session's shared-memory segment; the client-side
// API uses it as the data plane. It returns nil for unknown sessions and
// for daemon sessions, which have none.
func (m *Manager) Segment(session int) shm.Segment {
	if s, ok := m.sessions[session]; ok {
		return s.seg
	}
	return nil
}

// OpenSessions returns the number of live sessions. It reads the
// registry gauge, so (unlike len(m.sessions)) it is safe off-owner.
func (m *Manager) OpenSessions() int { return int(m.met.openSessions.Value()) }
