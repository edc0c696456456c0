// Package gvm implements the paper's contribution: the GPU Virtualization
// Manager, a run-time layer that owns the only GPU context and exposes a
// Virtual GPU (VGPU) to every SPMD process in the node.
//
// Structure (paper Figure 7): the base layer is the manager, which clients
// reach over a transport — the paper's is one POSIX-style shared-memory
// segment per client (data plane) and request/response message queues
// (control plane), modelled by package vgpu; gvmd's are sockets and rings —
// to drive the six-verb protocol of Figure 8: REQ, SND, STR, STP, RCV, RLS.
//
// The manager pre-initializes the device and its single context, so
// clients never pay Tinit; it gives each client a dedicated CUDA stream
// and pinned staging buffers; and it barriers STR requests from all
// parties before flushing every stream at once, so Fermi's concurrent
// kernel execution and copy/compute overlap apply *across* processes.
//
// There is one kind of session, and the manager holds no transport: a
// front-end (the mqueue model in vgpu, gvmd's socket dispatcher and ring
// host) opens, releases, extracts and adopts sessions through plain
// owner-side calls (OpenSession, ReleaseSession, ExtractSession,
// AdoptSession), lends each one staging memory and a notify hook
// (BindDirect), and issues its verbs through DirectVerb. The verb engine
// (serve, reading the protocol table state.step) never blocks its caller:
// a verb's virtual cost is a calendar event, anything that has to wait — a
// restore, a release — runs on a transient process, and every outcome goes
// to the session's notify hook. What a message hop, a second copy or a
// status poll costs is the front-end's to charge.
package gvm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"strconv"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/metrics"
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

var verbNames = [...]string{"REQ", "SND", "STR", "STP", "RCV", "RLS"}

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

// A session's protocol state is two small values: its phase, where it
// stands in its cycle, and its residency, where its arena is. Eviction
// keeps the phase — a session paged out idle is idle again once restored —
// so the state a client can name is evicted while the arena is off the
// device and the phase otherwise, except that a failed session is failed
// wherever its arena is.
type phase uint8

const (
	idle      phase = iota // opened, or taken off the STR barrier by a move
	staged                 // SND staged input; no cycle started
	running                // STR joined the barrier, or the flush is on the stream
	done                   // the cycle completed; results sit in staging
	abandoned              // a kernel failed on its own (session.failed says how)
	failed                 // a device fault hit the cycle (session.failed says which)
	rerun                  // adopted mid-cycle: the interrupted cycle is still owed
	gone                   // released
)

type residency uint8

const (
	resident residency = iota
	evicted            // the manager paged it out; the next verb that needs it restores it
)

type state struct {
	phase phase
	res   residency
}

var (
	phaseNames     = [...]string{"idle", "staged", "running", "done", "abandoned", "failed", "rerun", "gone"}
	residencyNames = [...]string{"resident", "evicted"}
)

// String names the state as DESIGN.md §3's table does.
func (st state) String() string {
	if st.res == resident || st.phase == failed {
		return phaseNames[st.phase]
	}
	return residencyNames[st.res]
}

// act is what the verb engine does with a verb: refuse it, perform it, or
// first restore the arena or replay the interrupted cycle and step again.
type act uint8

const (
	refuse       act = iota // ERR with step's text
	bounce                  // ERR: the device fault, retryable until failover moves the session
	kernelErr               // STP, RCV: ERR with the kernel's own error, which no retry mends
	restoreFirst            // restore the evicted arena, then step again
	replayFirst             // re-run the interrupted flush, then step again
	copyIn                  // SND: one host copy into staging, ACK
	join                    // STR: join the barrier, ACK at the flush
	ackNow                  // STP: ACK, the cycle is over
	park                    // STP: ACK when the flush completes (never WAIT: polling is the front-end's)
	copyOut                 // RCV: one host copy out of staging, ACK
	free                    // RLS: tear down once nothing uses the buffers, ACK
)

// step is the protocol: the one (state, verb) → (answer, next) function the
// verb engine consults, one guard per rule, first match wins. It says what
// the engine does with verb v on a session in state st, the error text when
// it refuses, and the state the session is in once v is answered — or, for
// restoreFirst and replayFirst, the state the prelude leaves it in, from
// which v steps again. DESIGN.md §3's table is this function over the eight
// named states.
func (st state) step(v Verb) (a act, text string, next state) {
	needsArena := v == SND || v == STR || v == RCV || (v == STP && st.phase == rerun)
	switch {
	case v == RLS:
		return free, "", state{phase: gone}
	case st.phase == failed:
		return bounce, "", st
	case st.phase == abandoned && (v == STP || v == RCV):
		return kernelErr, "", st
	case needsArena && st.res == evicted:
		return restoreFirst, "", state{st.phase, resident}
	case st.phase == rerun && (v == STP || v == RCV):
		// The client waits on the interrupted cycle's results; its own SND or
		// STR supersedes that cycle instead, re-driving it.
		return replayFirst, "", state{running, st.res}
	case v == SND && (st.phase == idle || st.phase == abandoned || st.phase == rerun):
		return copyIn, "", state{staged, st.res}
	case v == SND:
		return copyIn, "", st
	case v == STR && st.phase == running:
		return refuse, "STR while already running", st
	case v == STR:
		return join, "", state{running, st.res}
	case v == STP && st.phase == done:
		return ackNow, "", st
	case v == STP && st.phase == running:
		return park, "", state{done, st.res}
	case v == STP:
		return refuse, "STP before STR", st
	case v == RCV && st.phase == done:
		return copyOut, "", st
	}
	return refuse, "RCV before completion", st // RCV
}

// Request is what a REQ carries: the task and the session's options.
type Request struct {
	Spec *task.Spec
	// Priority orders eviction victims: lower-priority
	// sessions are evicted first when the device cannot fit an
	// allocation. Equal priorities fall back to LRU. 0 is the default.
	Priority int
	// Weight is the session's share of SM compute time
	// relative to co-resident sessions, and its precedence for
	// concurrent-kernel-window admission and wave-boundary preemption.
	// 0 derives the weight from Priority (max(1, Priority+1)); explicit
	// values are clamped to [1, gpusim.MaxLaunchWeight]. 1 everywhere
	// reproduces the unweighted scheduler exactly.
	Weight int
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
	// PageableStaging stages through pageable host buffers instead of the
	// pinned ones of the paper's design, which the zero value keeps. It is
	// an ablation: pageable staging transfers more slowly and, on real
	// hardware, would forbid async overlap.
	PageableStaging bool
	// QuotaBytes caps the aggregate shared-memory (and staging) footprint
	// of live sessions; REQ beyond the quota is rejected. The paper: "the
	// shared memory size is user-customizable to ensure the total size does
	// not exceed the GPU memory size". 0 defaults to the device's memory
	// size; a node passes its shard's quota, Overcommit x MemBytes.
	QuotaBytes int64
	// BarrierTimeout bounds how long buffered STR requests wait for the
	// remaining parties. When it expires the manager flushes the partial
	// batch, so a crashed SPMD rank cannot wedge the node. 0 disables
	// the timeout (strict barrier, the paper's behaviour).
	BarrierTimeout sim.Duration
	Tracer         *trace.Tracer
	// Metrics receives the manager's instruments. nil creates a private
	// registry; the daemon passes one shared registry so gvm, transport
	// and ipc series scrape together, and a test passes its own to read.
	Metrics *metrics.Registry
	// Log, when non-nil, receives one Info line per barrier flush.
	Log *slog.Logger
}

// The manager's two fixed host-side costs. hostCopyBW is host memcpy
// bandwidth (bytes/s) for client<->shm and shm<->pinned staging copies:
// dual-socket X5560 aggregate memcpy, matching the paper's node.
// resourceSetup is the manager-side cost of REQ handling (stream, buffer
// and kernel preparation).
const (
	hostCopyBW    = 24e9
	resourceSetup = 300 * sim.Microsecond
)

func (c Config) withDefaults() Config {
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

	ready    *sim.Event
	sessions map[int]*session
	nextID   int // last id handed out; advances by the id stride

	strPending []*session // sessions buffered at the STR barrier
	strScratch []*session // retired barrier array, recycled by the next flush
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
	devIn   cuda.DevPtr
	devOut  cuda.DevPtr
	scratch []cuda.DevPtr
	pinIn   *gpusim.HostBuffer
	pinOut  *gpusim.HostBuffer
	stream  *gpusim.Stream
	kernels []*cuda.Kernel

	st         state     // the protocol state step consults
	strArrived sim.Time  // when this session's STR joined the barrier
	stpWaiting bool      // an STP answer is owed at stream completion
	footprint  int64     // bytes counted against the manager's quota
	susp       *snapshot // &snap while the arena is off the card, else nil
	snap       snapshot  // the session's one snapshot, reused by every eviction
	// failed is the first device fault that hit this session's kernels:
	// the cause its failed phase answers with until the failover engine
	// migrates it to a healthy shard, where the cycle re-runs. Or it is a
	// kernel's own error, which its abandoned phase answers with.
	failed error

	// A session's device reservation (devBytes, the rounded bytes it
	// logically holds) outlives eviction.
	lastUsed sim.Time // LRU clock for victim selection
	priority int      // lower evicts first (Request.Priority)
	weight   int      // SM compute-time share (Request.Weight, normalized)
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
	// restore is the transparent restore's process body, bound at the
	// session's first one, and restoreVerb the verb it serves once the arena
	// is back: a session has one verb in flight, so one of each suffices.
	restore     func(p *sim.Proc)
	restoreVerb Verb

	// The session's control surface (Manager.BindDirect): every verb
	// outcome fires notify.
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
	if cfg.PageableStaging && cfg.Device.Arch().ConcurrentCopyExec {
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
	// Class 1 is every unweighted session's, so a fresh scrape shows both
	// per-class families at 0.
	m.classMetrics(1)
	return m
}

// SessionsOpened returns how many sessions REQ has provisioned.
func (m *Manager) SessionsOpened() int { return int(m.met.sessionsOpened.Value()) }

// Flushes returns how many barrier batches have flushed.
func (m *Manager) Flushes() int { return int(m.met.flushes.Value()) }

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

// mintSessionID advances the manager's striped id counter and returns a
// fresh session id: OpenSession's, and AdoptSession's for a session that
// crossed nodes (its source-node id may collide with a live local one).
// Owner side (it mutates manager state).
func (m *Manager) mintSessionID() int {
	stride := m.cfg.SessionIDStride
	if stride < 1 {
		stride = 1
	}
	m.nextID += stride
	return m.nextID
}

// Ready fires once the manager has initialized the device and created its
// single GPU context; sessions can be opened from then on.
func (m *Manager) Ready() *sim.Event { return m.ready }

// HostCopyTime returns the virtual time for a host memcpy of n bytes.
func (m *Manager) HostCopyTime(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / hostCopyBW * 1e9)
}

// Start spawns the manager's initialization: device + context creation, the
// only Tinit in the system, which clients never pay.
func (m *Manager) Start() {
	m.env.Go(func(p *sim.Proc) {
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
	})
}

// serve performs what the protocol (state.step) says verb does in the
// session's state. It is the one verb engine behind every front-end and must
// not block, so costs are calendar events and anything that has to wait — a
// restore, a release — runs on a transient process. The state moves where
// the verb's work does: at once for SND and STR, when the flush completes
// for a parked STP, and on their processes for RLS and a restore.
func (m *Manager) serve(s *session, verb Verb) {
	a, text, next := s.st.step(verb)
	switch a {
	case refuse:
		s.tell(verb, ERR, "gvm: "+text)
	case bounce:
		s.tell(verb, ERR, retryableSessionErr(s.id, m.cfg.GPUIndex, s.failed))
	case kernelErr:
		s.tell(verb, ERR, fmt.Sprintf("gvm: session %d: %v", s.id, s.failed))
	case restoreFirst:
		// Eviction is transparent: restore the arena before serving the
		// verb, waiting out pressure from running sessions.
		// Failure (device still full, nothing evictable, nothing running)
		// leaves the snapshot intact so the verb can be retried.
		if s.restore == nil {
			s.restore = func(p *sim.Proc) {
				verb := s.restoreVerb
				if err := m.restoreWithBackoff(p, s); err != nil {
					s.tell(verb, ERR, err.Error())
					return
				}
				m.serve(s, verb)
			}
		}
		s.restoreVerb = verb
		m.env.Go(s.restore)
	case replayFirst:
		m.rerunFlush(s)
		m.serve(s, verb)
	case copyIn:
		s.st = next
		m.after(m.HostCopyTime(s.spec.InBytes), s.sndDone)
	case join:
		s.st = next
		m.handleSTR(s)
	case ackNow:
		s.tell(STP, ACK, "")
	case park:
		s.stpWaiting = true
	case copyOut:
		m.after(m.HostCopyTime(s.spec.OutBytes), s.rcvDone)
	case free:
		m.env.Go(func(p *sim.Proc) {
			notify := s.notify // teardown detaches it; the ack is its last call
			if !m.release(p, s) {
				return // ReleaseSession got there while this one waited
			}
			notify(RLS, ACK, "")
		})
	}
}

// after charges d of virtual time as a calendar event ending in fn.
func (m *Manager) after(d sim.Duration, fn func()) {
	if d > 0 {
		m.env.After(d, fn)
	} else {
		fn()
	}
}

// ReleaseSession ends a session from outside the verb stream (a
// hang-up, an unwound open, shutdown), waiting out whatever still uses its
// buffers exactly as RLS does. It reports whether this call was the one
// that released it. Owner-goroutine side, on the caller's process.
func (m *Manager) ReleaseSession(p *sim.Proc, id int) bool {
	s, ok := m.sessions[id]
	return ok && m.release(p, s)
}

// OpenSession serves REQ: on the caller's process p (which pays the
// resource-setup time) it provisions a VGPU — device buffers, a dedicated
// stream and the prepared kernel sequence — and returns its id. The session
// has no staging memory and takes no verbs until BindDirect gives it both.
// Owner-goroutine side.
func (m *Manager) OpenSession(p *sim.Proc, r Request) (int, error) {
	if r.Spec == nil {
		return 0, errors.New("gvm: OpenSession needs a Spec")
	}
	m.met.requests.Inc()
	start := p.Now()
	p.Sleep(resourceSetup)
	footprint := r.Spec.InBytes + r.Spec.OutBytes
	quota := m.cfg.QuotaBytes
	if quota == 0 {
		quota = m.dev.Arch().MemBytes
	}
	if m.shmInUse+footprint > quota {
		return 0, fmt.Errorf(
			"gvm: gpu %d session quota exceeded: %d bytes live + %d requested > %d",
			m.cfg.GPUIndex, m.shmInUse, footprint, quota)
	}
	s := &session{
		id: m.mintSessionID(), spec: r.Spec,
		priority: r.Priority, lastUsed: p.Now(),
		weight: sessionWeight(r),
	}
	m.bindClassMetrics(s)
	m.shmInUse += footprint
	s.footprint = footprint

	s.pinIn = m.newStaging(r.Spec.InBytes, nil)
	s.pinOut = m.newStaging(r.Spec.OutBytes, nil)
	// All of a session's device allocations flow through its allocator: it
	// keeps the device's reserved-bytes gauge in step with what the session
	// logically holds (the reservation survives eviction).
	if err := m.build(s, &sessionAllocator{m: m, s: s}); err != nil {
		m.teardown(s)
		return 0, err
	}
	m.sessions[s.id] = s
	m.met.sessionsOpened.Inc()
	m.met.openSessions.Inc()
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("REQ s%d (%s)", s.id, r.Spec.Name), start, p.Now())
	}
	return s.id, nil
}

// build gives a session its device buffers through alloc, builds its kernel
// sequence against their addresses and prepares its flush ops: once per
// session, since an eviction keeps the addresses. The output buffer, and
// the input buffer unless a kernel writes it, take no memory of their own:
// they live on the session's staging (BindDirect).
func (m *Manager) build(s *session, alloc *sessionAllocator) error {
	var err error
	if s.spec.InBytes > 0 {
		if s.devIn, err = alloc.malloc(s.spec.InBytes, !s.spec.WritesIn); err != nil {
			return err
		}
	}
	if s.spec.OutBytes > 0 {
		if s.devOut, err = alloc.malloc(s.spec.OutBytes, true); err != nil {
			return err
		}
	}
	if s.spec.Build != nil {
		b := &task.Buffers{In: s.devIn, Out: s.devOut, Alloc: alloc, Scratch: &s.scratch}
		if s.kernels, err = s.spec.Build(b); err != nil {
			return err
		}
		for _, k := range s.kernels {
			if err := k.Validate(m.dev.Arch()); err != nil {
				return err
			}
		}
	}
	s.stream = m.ctx.NewStream()
	m.prepareOps(s)
	return nil
}

// bindClassMetrics prebinds the session's weight-class instruments so the
// hot path pays no map lookups.
func (m *Manager) bindClassMetrics(s *session) {
	s.launches, s.turnClassNS = m.classMetrics(weightClass(s.weight))
}

// classMetrics returns one weight class's instruments on this shard; the
// registry is idempotent, so sessions of one class share a series.
func (m *Manager) classMetrics(class int) (*metrics.Counter, *metrics.Histogram) {
	cl := metrics.L("class", strconv.Itoa(class))
	gl := metrics.L("gpu", strconv.Itoa(m.cfg.GPUIndex))
	return m.reg.Counter("gpusim_sched_launches_total", "kernel launches by weight class", gl, cl),
		m.reg.Histogram("gvm_turnaround_class_ns", "virtual ns from STR arrival to cycle completion, by weight class", gl, cl)
}

// logs reports whether the manager's logger takes lines at level. The
// flush and eviction lines come every cycle, and a slog call boxes its
// arguments, an allocation, before its handler can drop them.
func (m *Manager) logs(level slog.Level) bool {
	return m.log != nil && m.log.Enabled(context.Background(), level)
}

// newStaging makes one direction's pinned staging buffer (nil for a
// zero-sized direction). Staging is caller-owned (BindDirect), so until the
// bind it is just what an adoption carried over (data) — never an
// allocation the bind would drop.
func (m *Manager) newStaging(n int64, data []byte) *gpusim.HostBuffer {
	if n <= 0 {
		return nil
	}
	return gpusim.WrapHost(data, !m.cfg.PageableStaging)
}

// copied ends the host copy SND or RCV charged (paper Figure 8: "Copies
// Data from Virtual Shared Memory to Host Pinned Memory" and back): the
// bytes themselves are already where the front-end put them.
func (m *Manager) copied(s *session, verb Verb, n int64) {
	if m.cfg.Tracer != nil {
		now := m.env.Now()
		m.cfg.trace("gvm", fmt.Sprintf("%v s%d %dB", verb, s.id, n), now.Add(-m.HostCopyTime(n)), now)
	}
	s.tell(verb, ACK, "")
}

// handleSTR buffers the request at the barrier; when all parties have
// arrived, every buffered session's stream is flushed simultaneously —
// async H2D from pinned memory, the kernel sequence, async D2H — and all
// STRs are acknowledged (paper Figure 8's "Barrier to Synchronize STR
// from All Processes" followed by "Starts Executing All CUDA streams").
// A session parked here simply has no answer yet.
func (m *Manager) handleSTR(s *session) {
	s.strArrived = m.env.Now()
	m.strPending = append(m.strPending, s)
	if len(m.strPending) < m.cfg.Parties {
		if m.cfg.BarrierTimeout > 0 && len(m.strPending) == 1 {
			m.armBarrierTimeout()
		}
		return // barrier: wait for the remaining parties
	}
	m.flushBatch(false)
}

// armBarrierTimeout arms a timeout for the current barrier generation: if
// the other parties never arrive, the partial batch flushes anyway.
func (m *Manager) armBarrierTimeout() {
	gen := m.strGen
	m.env.After(m.cfg.BarrierTimeout, func() {
		if m.strGen != gen || len(m.strPending) == 0 {
			return
		}
		m.env.Go(func(p *sim.Proc) {
			// Re-check: between this proc being scheduled and it
			// running, the original barrier may have completed and
			// a NEW generation's first STR may now be pending. A
			// stale timer must never flush that newer generation.
			if m.strGen != gen || len(m.strPending) == 0 {
				return
			}
			m.flushBatch(true)
		})
	})
}

// flushBatch flushes all sessions buffered at the barrier and ACKs their
// STRs. timedOut marks a partial flush forced by BarrierTimeout. The whole
// batch is acknowledged inline through the sessions' notify hooks.
func (m *Manager) flushBatch(timedOut bool) {
	batch := m.strPending
	if len(batch) == 0 {
		return
	}
	// Nothing parks inside this call, so no second flushBatch can overlap
	// it: recycle the retired array to keep the steady-state cycle
	// allocation-free.
	m.strPending = m.strScratch[:0]
	m.strScratch = batch
	m.strGen++
	m.met.flushes.Inc()
	if timedOut {
		m.met.barrierTimeouts.Inc()
	}
	now := m.env.Now()
	for _, bs := range batch {
		m.met.barrierWaitNS.Observe(int64(now - bs.strArrived))
	}
	if m.logs(slog.LevelInfo) {
		m.log.Info("gvm flush",
			"sessions", len(batch), "timed_out", timedOut, "gen", m.strGen)
	}
	for _, bs := range batch {
		m.flush(bs)
	}
	if m.cfg.Tracer != nil {
		m.cfg.trace("gvm", fmt.Sprintf("STR flush x%d", len(batch)), now, m.env.Now())
	}
	for _, bs := range batch {
		bs.tell(STR, ACK, "")
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
// chain, D2H — and its completion callback. Building these once per session
// keeps every flush free of per-operation closure and event allocations.
// The copy closures read the session's fields at run time, so BindDirect
// may rebind staging underneath them; the kernel closures capture the
// kernel objects themselves, which stay valid across evictions because the
// session keeps its device addresses (a restore builds nothing).
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
			// A hang or fatal fault fails the launch, or aborts the kernel
			// in flight, with its *FaultError; a kernel body that panicked
			// on what the client staged fails it with an error of its own.
			if err := ctx.Launch(p, k, s.weight); err != nil {
				s.failed = err
			}
		})
	}
	if s.spec.OutBytes > 0 {
		s.ops = append(s.ops, func(p *sim.Proc) { ctx.MemcpyD2H(p, s.pinOut, s.devOut, s.spec.OutBytes) })
	}
	s.finishCB = func() {
		if s.failed == nil {
			s.st.phase = done
			turn := int64(m.env.Now() - s.strArrived)
			m.met.turnaroundNS.Observe(turn)
			s.turnClassNS.Observe(turn)
		} else if _, fault := gpusim.IsFault(s.failed); fault {
			// The cycle died on a device fault: polls get a retryable error
			// so the client backs off while the failover engine migrates
			// the session (the rerun happens there).
			s.st.phase = failed
		} else {
			// A kernel failed on its own: the cycle is abandoned with an
			// error no retry mends, which STP and RCV answer until another
			// cycle starts; the session and its shard serve on.
			s.st.phase = abandoned
		}
		if s.stpWaiting {
			// The parked STP is answered as one arriving now would be.
			s.stpWaiting = false
			m.serve(s, STP)
		}
	}
}

// flush enqueues one session's full GPU cycle on its stream; the finish
// callback rides the last operation.
func (m *Manager) flush(s *session) {
	s.failed = nil // an abandoned cycle's error ends with it
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
	// An evicted arena's staged halves are the caller's staging, which the
	// front-end may unmap once the session is gone.
	s.snap.in = nil
	if s.stream != nil {
		s.stream.Close()
		s.stream = nil
	}
	// The logical reservation is returned whether the arena was resident
	// or sitting in a host snapshot.
	if s.devBytes > 0 {
		m.dev.Unreserve(s.devBytes)
		s.devBytes = 0
	}
	s.susp = nil
	s.st = state{phase: gone}
	m.shmInUse -= s.footprint
	s.footprint = 0
}

// Staging exposes a session's pinned staging buffers: in receives SND
// payloads before the flush, out holds RCV results once it completed.
// Slices are nil for unknown sessions, timing-only devices,
// zero-sized directions, and sessions nothing has been bound to yet. The
// caller owns synchronization: it must not
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
