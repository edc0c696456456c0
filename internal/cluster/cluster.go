// Package cluster models the multi-node HPC system of the paper's
// Figure 2: compute nodes joined by an interconnection network, each
// node with several CPU cores and (on GPU-equipped nodes) one GPU
// virtualized by a node-local GVM.
//
// Besides node-local virtualization — the paper's contribution — the
// package implements remote GPU access in the style of the paper's
// related work [11] (Duato et al., rCUDA): processes on GPU-less nodes
// reach a GPU node's manager across the interconnect, paying network
// latency on every protocol message and network bandwidth on every data
// transfer. The cluster experiment quantifies the communication overhead
// the paper argues that approach suffers.
package cluster

import (
	"fmt"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/vgpu"
)

// Interconnect models the system network at the message level.
type Interconnect struct {
	Bandwidth float64      // bytes/s, e.g. 3.2e9 for QDR InfiniBand
	Latency   sim.Duration // one-way message latency
}

// QDRInfiniBand is a 2011-era cluster interconnect (the Tianhe-1A class
// systems the paper cites used proprietary links of similar order).
func QDRInfiniBand() Interconnect {
	return Interconnect{Bandwidth: 3.2e9, Latency: 2 * sim.Microsecond}
}

// GigabitEthernet is the commodity alternative.
func GigabitEthernet() Interconnect {
	return Interconnect{Bandwidth: 118e6, Latency: 30 * sim.Microsecond}
}

// TransferTime returns the time to move n bytes as one message.
func (ic Interconnect) TransferTime(n int64) sim.Duration {
	if n <= 0 {
		return ic.Latency
	}
	return ic.Latency + sim.Duration(float64(n)/ic.Bandwidth*1e9)
}

// Node is one compute node.
type Node struct {
	ID    int
	Cores int
	Dev   *gpusim.Device // nil on GPU-less nodes
	Mgr   *gvm.Manager   // nil on GPU-less nodes
	front *vgpu.Host     // Mgr's mqueue front-end
}

// HasGPU reports whether the node hosts a GPU.
func (n *Node) HasGPU() bool { return n.Dev != nil }

// Config describes a cluster.
type Config struct {
	Nodes        int
	CoresPerNode int
	GPUNodes     int // the first GPUNodes nodes carry a GPU + manager
	Arch         fermi.Arch
	Interconnect Interconnect
	Functional   bool
	// Parties is each manager's STR barrier width; 0 means one flush
	// per arriving STR (no batching), which suits mixed local/remote
	// populations whose arrival times differ by network latencies.
	Parties int
}

// Cluster is a set of nodes sharing a simulation environment.
type Cluster struct {
	env   *sim.Env
	ic    Interconnect
	nodes []*Node
}

// New builds the cluster and starts every GPU node's manager.
func New(env *sim.Env, cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 || cfg.GPUNodes < 1 || cfg.GPUNodes > cfg.Nodes {
		return nil, fmt.Errorf("cluster: need 1 <= GPUNodes (%d) <= Nodes (%d)", cfg.GPUNodes, cfg.Nodes)
	}
	if cfg.CoresPerNode < 1 {
		return nil, fmt.Errorf("cluster: CoresPerNode = %d", cfg.CoresPerNode)
	}
	if cfg.Arch.SMs == 0 {
		cfg.Arch = fermi.TeslaC2070()
	}
	if cfg.Interconnect.Bandwidth == 0 {
		cfg.Interconnect = QDRInfiniBand()
	}
	parties := cfg.Parties
	if parties == 0 {
		parties = 1
	}
	c := &Cluster{env: env, ic: cfg.Interconnect}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{ID: i, Cores: cfg.CoresPerNode}
		if i < cfg.GPUNodes {
			dev, err := gpusim.New(env, gpusim.Config{Arch: cfg.Arch, Functional: cfg.Functional})
			if err != nil {
				return nil, err
			}
			n.Dev = dev
			n.Mgr = gvm.New(env, gvm.Config{Device: dev, Parties: parties})
			n.Mgr.Start()
			n.front = vgpu.Serve(n.Mgr, vgpu.Config{})
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

// Env returns the cluster's simulation environment.
func (c *Cluster) Env() *sim.Env { return c.env }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// GPUNodeFor returns the GPU node serving processes of node `from`:
// the node itself when it has a GPU, else round-robin over GPU nodes.
func (c *Cluster) GPUNodeFor(from int) *Node {
	if c.nodes[from].HasGPU() {
		return c.nodes[from]
	}
	gpus := 0
	for _, n := range c.nodes {
		if n.HasGPU() {
			gpus++
		}
	}
	return c.nodes[from%gpus]
}

// VGPU is a virtual GPU handle that may be remote: protocol verbs and
// data transfers pay interconnect costs when client and manager live on
// different nodes (the rCUDA-style access of related work [11]).
type VGPU struct {
	inner  *vgpu.VGPU
	ic     Interconnect
	remote bool
	spec   *task.Spec
	// NetworkTime accumulates the virtual time spent on the wire.
	NetworkTime sim.Duration
}

// Connect opens a VGPU for a process on node `from` against the manager
// on node `on` (use GPUNodeFor to pick). Remote connections pay one
// message round trip.
func (c *Cluster) Connect(p *sim.Proc, from, on int, spec *task.Spec) (*VGPU, error) {
	node := c.nodes[on]
	if !node.HasGPU() {
		return nil, fmt.Errorf("cluster: node %d has no GPU", on)
	}
	v := &VGPU{ic: c.ic, remote: from != on, spec: spec}
	v.hop(p, 0) // REQ out
	inner, err := node.front.Connect(p, spec)
	if err != nil {
		return nil, err
	}
	v.hop(p, 0) // ACK back
	v.inner = inner
	return v, nil
}

// hop pays one network message carrying n payload bytes (remote only).
func (v *VGPU) hop(p *sim.Proc, n int64) {
	if !v.remote {
		return
	}
	d := v.ic.TransferTime(n)
	p.Sleep(d)
	v.NetworkTime += d
}

// Remote reports whether this handle crosses the interconnect.
func (v *VGPU) Remote() bool { return v.remote }

// SendInput ships the input (over the network for remote handles) and
// issues SND.
func (v *VGPU) SendInput(p *sim.Proc, data []byte) error {
	v.hop(p, v.spec.InBytes) // payload out
	err := v.inner.SendInput(p, data)
	v.hop(p, 0) // ACK back
	return err
}

// Start issues STR (one round trip for remote handles).
func (v *VGPU) Start(p *sim.Proc) error {
	v.hop(p, 0)
	err := v.inner.Start(p)
	v.hop(p, 0)
	return err
}

// Wait polls STP; each poll is a network round trip for remote handles.
func (v *VGPU) Wait(p *sim.Proc) error {
	if !v.remote {
		return v.inner.Wait(p)
	}
	// Remote polling: re-issue STP with the client's backoff, paying two
	// hops per poll. Approximate by charging the hops per poll recorded
	// by the inner handle.
	before := v.inner.Polls
	err := v.inner.Wait(p)
	polls := v.inner.Polls - before
	for i := 0; i < polls*2; i++ {
		v.hop(p, 0)
	}
	return err
}

// ReceiveOutput issues RCV and ships the results back.
func (v *VGPU) ReceiveOutput(p *sim.Proc, buf []byte) error {
	v.hop(p, 0) // RCV out
	err := v.inner.ReceiveOutput(p, buf)
	v.hop(p, v.spec.OutBytes) // payload back
	return err
}

// Release issues RLS.
func (v *VGPU) Release(p *sim.Proc) error {
	v.hop(p, 0)
	err := v.inner.Release(p)
	v.hop(p, 0)
	return err
}

// RunCycle performs one full execution cycle.
func (v *VGPU) RunCycle(p *sim.Proc, in, out []byte) error {
	if err := v.SendInput(p, in); err != nil {
		return err
	}
	if err := v.Start(p); err != nil {
		return err
	}
	if err := v.Wait(p); err != nil {
		return err
	}
	return v.ReceiveOutput(p, out)
}

// JobResult is the outcome of a cluster-wide SPMD job.
type JobResult struct {
	Turnaround  sim.Duration
	PerProcess  []sim.Duration
	RemoteProcs int
	LocalProcs  int
	NetworkTime sim.Duration // summed across remote processes
}

// RunJob launches procsPerNode SPMD processes on every node; processes
// on GPU-less nodes reach a GPU node remotely. All processes run one
// cycle of the given spec. Turnaround counts from the moment every
// manager is ready.
func (c *Cluster) RunJob(procsPerNode int, specFor func(node, rank int) *task.Spec) (JobResult, error) {
	total := procsPerNode * len(c.nodes)
	res := JobResult{PerProcess: make([]sim.Duration, total)}
	errs := make([]error, total)
	idx := 0
	for ni := range c.nodes {
		for r := 0; r < procsPerNode; r++ {
			ni, r, i := ni, r, idx
			idx++
			c.env.Go(fmt.Sprintf("n%d-p%d", ni, r), func(p *sim.Proc) {
				target := c.GPUNodeFor(ni)
				p.Wait(target.Mgr.Ready())
				t0 := p.Now()
				v, err := c.Connect(p, ni, target.ID, specFor(ni, r))
				if err != nil {
					errs[i] = err
					return
				}
				if v.Remote() {
					res.RemoteProcs++
				} else {
					res.LocalProcs++
				}
				if err := v.RunCycle(p, nil, nil); err != nil {
					errs[i] = err
					return
				}
				res.PerProcess[i] = p.Now().Sub(t0)
				res.NetworkTime += v.NetworkTime
				errs[i] = v.Release(p)
			})
		}
	}
	if err := c.env.Run(); err != nil {
		return res, err
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	for _, d := range res.PerProcess {
		if d > res.Turnaround {
			res.Turnaround = d
		}
	}
	return res, nil
}
