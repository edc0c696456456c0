// Package node is the multi-GPU layer above gvm: it owns N independent
// per-GPU shards — each one a sim.Env, a simulated device, and a
// gvm.Manager (the paper's one-GPU GVM) — plus the placement that assigns
// new sessions to shards. The paper's design is one
// manager per GPU context; a multi-GPU HPC node (Section VII, and the
// authors' journal extension arXiv:1511.07658) is therefore N managers
// behind one placement decision, not one manager with extra devices.
//
// Shards are fully independent: separate virtual clocks, separate STR
// barrier generations (Config.Parties is the width of EACH shard's
// barrier), separate staging pools. The daemon guards each shard with its
// own owner lock, so shards execute in parallel on real CPUs; simulation-mode
// callers may instead share one Env across every shard (SharedEnv) and
// keep the single-threaded discipline.
package node

import (
	"fmt"
	"log/slog"
	"strconv"
	"sync"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/vgpu"
)

// Shard is one GPU's slice of the node: its simulation environment (own
// clock unless the node was built with SharedEnv), its device, and the
// gvm.Manager owning the device's single context.
type Shard struct {
	Index int
	Env   *sim.Env
	Dev   *gpusim.Device
	Mgr   *gvm.Manager
}

// Config configures a node.
type Config struct {
	// GPUs is the number of shards (default 1).
	GPUs int
	// Arch is every shard's device architecture (zero value: Tesla C2070).
	Arch fermi.Arch
	// Functional carries real data end to end on every shard.
	Functional bool
	// ExecWorkers sizes each device's functional kernel-execution pool.
	ExecWorkers int
	// Parties is the STR barrier width OF EACH SHARD: a shard flushes
	// when Parties of ITS sessions have issued STR. Placement decides
	// which sessions share a shard (and hence a barrier), so Parties > 1
	// with GPUs > 1 needs client counts in multiples of Parties*GPUs for
	// strict barriers to fill. Default 1 (no barrier batching).
	Parties int
	// MaxSessionBytes caps one session's staging footprint
	// (InBytes+OutBytes); Place rejects a larger session with an error
	// naming the limit. 0 = no per-session cap (device-memory fit still
	// applies).
	MaxSessionBytes int64
	// Overcommit is the quota-admission factor: a shard admits a session
	// while reserved bytes stay within Overcommit x its device capacity.
	// 1.0 (or 0, the default) is the classic fit-or-reject admission;
	// 2.0 admits up to twice the device memory, relying on the managers'
	// eviction engine to page idle sessions' arenas to host snapshots.
	// Values below 1 underbook the device (burn-in headroom). Must be
	// > 0 when set.
	Overcommit float64
	// BarrierTimeout bounds each shard's partial-barrier wait (gvm
	// semantics, per shard).
	BarrierTimeout sim.Duration
	// SharedEnv, when non-nil, puts every shard on this one environment
	// instead of a private one per shard: simulation-mode callers (the
	// experiments) drive all shards under one virtual clock. The daemon
	// leaves it nil so the shards' owners run in parallel.
	SharedEnv *sim.Env
	// Metrics receives every shard's manager series (gpu-labelled) plus
	// the node's placement gauges. nil creates a private registry.
	Metrics *metrics.Registry
	// FaultPlan, when non-nil, installs launch-path fault injectors on
	// the shards it targets (gvmd -fault-inject). Each shard derives its
	// own deterministic injector via FaultPlan.ForGPU.
	FaultPlan *gpusim.FaultPlan
	// Log is handed to every shard's manager.
	Log *slog.Logger
}

// Node owns the shards and their placement. Placement state is O(1)
// per operation: per-shard session and byte counters move on Place and
// Release, so choosing a shard never rescans live sessions.
type Node struct {
	cfg    Config
	shards []*Shard
	fronts []*vgpu.Host // per shard, SharedEnv nodes only (Connect's way in)

	mu     sync.Mutex
	placer *Placer
	// Per-shard placement loads, mutated under mu. The gauges double as
	// the scrape-visible node_placed_* series, and being atomics they can
	// be read off-lock (Loads, tests, /metrics).
	placedSessions []*metrics.Gauge
	placedBytes    []*metrics.Gauge
	// health holds each shard's HealthState in the node_shard_health
	// gauge (the gauge atomic IS the state, so scrapes and Place read
	// the same word). Escalations go through SetHealth.
	health []*metrics.Gauge
	// faultHandler is the failover engine's escalation callback
	// (SetFaultHandler); invoked outside mu.
	faultHandler func(shard int, h HealthState)
}

// New builds the node's shards and validates the config. Call
// Start to bring the managers up.
func New(cfg Config) (*Node, error) {
	if cfg.GPUs == 0 {
		cfg.GPUs = 1
	}
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("node: GPUs must be >= 1, got %d", cfg.GPUs)
	}
	if cfg.Parties < 0 {
		return nil, fmt.Errorf("node: Parties must be >= 0, got %d", cfg.Parties)
	}
	if cfg.Arch.SMs == 0 {
		cfg.Arch = fermi.TeslaC2070()
	}
	if cfg.Overcommit < 0 || (cfg.Overcommit > 0 && cfg.Overcommit < 1e-9) {
		return nil, fmt.Errorf("node: Overcommit must be > 0, got %g", cfg.Overcommit)
	}
	if cfg.Overcommit == 0 {
		cfg.Overcommit = 1.0
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	n := &Node{cfg: cfg, placer: &Placer{Noun: "GPU"}}
	for i := 0; i < cfg.GPUs; i++ {
		env := cfg.SharedEnv
		if env == nil {
			env = sim.NewEnv()
		}
		dev, err := gpusim.New(env, gpusim.Config{
			Arch:        cfg.Arch,
			Functional:  cfg.Functional,
			ExecWorkers: cfg.ExecWorkers,
		})
		if err != nil {
			return nil, fmt.Errorf("node: gpu %d: %w", i, err)
		}
		// The manager's aggregate cap is the shard's admission quota: every
		// footprint it counts was first reserved by Place, so the cap
		// never binds before Place's does.
		mgr := gvm.New(env, gvm.Config{
			Device:          dev,
			GPUIndex:        i,
			SessionIDStride: cfg.GPUs,
			Parties:         cfg.Parties,
			MaxSessionBytes: n.quota(),
			BarrierTimeout:  cfg.BarrierTimeout,
			Metrics:         reg,
			Log:             cfg.Log,
		})
		n.shards = append(n.shards, &Shard{Index: i, Env: env, Dev: dev, Mgr: mgr})
		gl := metrics.L("gpu", strconv.Itoa(i))
		n.placedSessions = append(n.placedSessions,
			reg.Gauge("node_placed_sessions", "sessions the placement layer has assigned to the shard", gl))
		n.placedBytes = append(n.placedBytes,
			reg.Gauge("node_placed_bytes", "staging bytes the placement layer has reserved on the shard", gl))
		n.health = append(n.health,
			reg.Gauge("node_shard_health", "shard health state: 0 healthy, 1 degraded, 2 draining, 3 unhealthy", gl))
		// Device fault events drive the shard health machine. The counter
		// set is pre-registered per kind so a scrape before any fault
		// still shows the series at zero.
		dev.SetIndex(i)
		dev.SetFaultInjector(cfg.FaultPlan.ForGPU(i))
		faults := map[gpusim.FaultKind]*metrics.Counter{}
		for _, k := range []gpusim.FaultKind{gpusim.XidMemory, gpusim.XidHang, gpusim.XidFatal} {
			faults[k] = reg.Counter("gpusim_faults_total", "injected device faults by kind", gl, metrics.L("kind", k.String()))
		}
		shard := i
		dev.OnFault(func(kind gpusim.FaultKind) {
			if c := faults[kind]; c != nil {
				c.Inc()
			}
			n.SetHealth(shard, healthFor(kind))
		})
	}
	return n, nil
}

// Start spawns every shard's manager. With per-shard environments it
// also drains each one so every manager is Ready on return; with
// SharedEnv the caller runs the environment itself (the managers come up
// alongside the caller's own processes), and each shard also gets the
// simulation's mqueue front-end.
func (n *Node) Start() error {
	for _, sh := range n.shards {
		sh.Mgr.Start()
	}
	if n.cfg.SharedEnv != nil {
		for _, sh := range n.shards {
			n.fronts = append(n.fronts, vgpu.Serve(sh.Mgr, vgpu.Config{}))
		}
		return nil
	}
	for _, sh := range n.shards {
		if err := sh.Env.Run(); err != nil {
			return fmt.Errorf("node: gpu %d: %w", sh.Index, err)
		}
	}
	return nil
}

// NumShards returns the shard count.
func (n *Node) NumShards() int { return len(n.shards) }

// Shard returns shard i.
func (n *Node) Shard(i int) *Shard { return n.shards[i] }

// Shards returns every shard in index order.
func (n *Node) Shards() []*Shard { return n.shards }

// quota returns a shard's admission capacity: Overcommit x device memory,
// the ceiling its reserved (placed) bytes may reach. Every shard shares
// the node's architecture, so every shard has the same quota.
func (n *Node) quota() int64 {
	return int64(n.cfg.Overcommit * float64(n.cfg.Arch.MemBytes))
}

// Loads snapshots every shard's placement load in index order.
func (n *Node) Loads() []Load {
	loads := make([]Load, len(n.shards))
	for i, sh := range n.shards {
		loads[i] = Load{
			Shard:    i,
			Health:   HealthState(n.health[i].Value()),
			Sessions: n.placedSessions[i].Value(),
			Bytes:    n.placedBytes[i].Value(),
			MemFree:  n.quota() - n.placedBytes[i].Value(),
			Resident: sh.Dev.MemResident(),
		}
	}
	return loads
}

// Place runs admission control and placement for a session
// with the given staging footprint, reserving the footprint on the
// chosen shard. Admission is by RESERVED bytes against the overcommit
// quota (reserved <= Overcommit x capacity), not by physical fit: under
// overcommit the shard's eviction engine makes the bytes resident on
// demand. The caller must pair a successful Place with Release (even
// when the shard's manager later rejects the REQ). O(GPUs), no session
// scans.
func (n *Node) Place(inBytes, outBytes int64) (int, error) {
	footprint := inBytes + outBytes
	if max := n.cfg.MaxSessionBytes; max > 0 && footprint > max {
		return -1, fmt.Errorf(
			"node: session staging %d bytes (in %d + out %d) exceeds the daemon's -max-session-bytes limit %d",
			footprint, inBytes, outBytes, max)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// The shared two-level Placer does the health filter and the pick;
	// n.mu makes snapshot→select→reserve atomic against concurrent Places.
	idx, err := n.placer.Select(n.Loads(), footprint)
	if err != nil {
		return -1, fmt.Errorf("node: %v (overcommit %.2g)", err, n.cfg.Overcommit)
	}
	n.placedSessions[idx].Inc()
	n.placedBytes[idx].Add(footprint)
	return idx, nil
}

// Release returns a session's reservation to shard idx (the inverse of
// Place; call it when the session is torn down or its REQ failed).
func (n *Node) Release(idx int, inBytes, outBytes int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.placedSessions[idx].Dec()
	n.placedBytes[idx].Add(-(inBytes + outBytes))
}

// Connect places spec's session and opens a VGPU through the chosen
// shard's mqueue front-end — the simulation-mode equivalent of the daemon's
// REQ path, for a started SharedEnv node (vgpu keeps its API; only the
// manager it reaches is decided here). The caller should pair a successful
// Connect with Release(shard, spec.InBytes, spec.OutBytes) after
// VGPU.Release.
func (n *Node) Connect(p *sim.Proc, spec *task.Spec) (*vgpu.VGPU, int, error) {
	if spec == nil {
		return nil, -1, fmt.Errorf("node: nil task spec")
	}
	idx, err := n.Place(spec.InBytes, spec.OutBytes)
	if err != nil {
		return nil, -1, err
	}
	v, err := n.fronts[idx].Connect(p, spec)
	if err != nil {
		n.Release(idx, spec.InBytes, spec.OutBytes)
		return nil, -1, err
	}
	return v, idx, nil
}
