package experiments

import (
	"errors"
	"fmt"
	"strings"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/vgpu"
	"gpuvirt/internal/workloads"
)

// The experiments in this file go beyond the paper's evaluation: they
// quantify the alternatives the paper argues against (remote GPU access,
// related work [11]) and the extension it gestures at (multi-GPU nodes,
// Section VII).

// ClusterRow is one row of the cluster extension experiment.
type ClusterRow struct {
	Setup        string
	TurnaroundMS float64
	NetworkMS    float64
	RemoteProcs  int
}

// interconnect is the system network of the remote-GPU rows, modelled at
// the message level: every message pays the one-way latency, and its
// payload the bandwidth.
type interconnect struct {
	bandwidth float64 // bytes/s
	latency   sim.Duration
}

// qdrInfiniBand is a 2011-era cluster interconnect (the Tianhe-1A class
// systems the paper cites used proprietary links of similar order);
// gigabitEthernet is the commodity alternative.
var (
	qdrInfiniBand   = interconnect{bandwidth: 3.2e9, latency: 2 * sim.Microsecond}
	gigabitEthernet = interconnect{bandwidth: 118e6, latency: 30 * sim.Microsecond}
)

// transferTime is the time to move n bytes as one message.
func (ic interconnect) transferTime(n int64) sim.Duration {
	if n <= 0 {
		return ic.latency
	}
	return ic.latency + sim.Duration(float64(n)/ic.bandwidth*1e9)
}

// ExtensionCluster compares 8 SPMD processes sharing one GPU three ways:
// on the GPU node through the local GVM, and from eight GPU-less nodes
// over QDR InfiniBand and gigabit Ethernet (rCUDA-style remote access,
// the paper's related work [11]). In a remote row the GPU node runs one
// process of its own beside the eight remote ones, and its manager
// flushes every STR on arrival (Parties 1), since arrival times differ by
// network latencies.
func ExtensionCluster() ([]ClusterRow, error) {
	w := workloads.VectorAdd(10_000_000) // 80 MB in, 40 MB out per process
	var rows []ClusterRow
	for _, c := range []struct {
		setup                  string
		parties, local, remote int
		ic                     interconnect
	}{
		{"local GVM (paper)", 8, 8, 0, interconnect{}},
		{"remote, QDR InfiniBand", 1, 1, 8, qdrInfiniBand},
		{"remote, gigabit Ethernet", 1, 1, 8, gigabitEthernet},
	} {
		turnaround, wire, err := clusterJob(w, c.parties, c.local, c.remote, c.ic)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", c.setup, err)
		}
		rows = append(rows, ClusterRow{
			Setup:        c.setup,
			TurnaroundMS: turnaround.Seconds() * 1e3,
			NetworkMS:    wire.Seconds() * 1e3,
			RemoteProcs:  c.remote,
		})
	}
	return rows, nil
}

// clusterJob runs one cycle of w in each of `local` processes on a
// one-GPU node and then `remote` processes reaching that node across ic.
// It returns the slowest process's turnaround, counted from the manager
// being ready and REQ included, and the remote processes' summed time on
// the wire. A remote process pays one message per protocol hop: REQ and
// its ACK, SND with the input and its ACK, STR and its ACK, two per STP
// poll, RCV and the ACK with the output, RLS and its ACK.
func clusterJob(w workloads.Workload, parties, local, remote int, ic interconnect) (turnaround, wire sim.Duration, err error) {
	env := sim.NewEnv()
	nd, err := node.New(node.Config{GPUs: 1, Parties: parties, SharedEnv: env})
	if err != nil {
		return 0, 0, err
	}
	if err := nd.Start(); err != nil {
		return 0, 0, err
	}
	errs := make([]error, local+remote)
	for i := range errs {
		far := i >= local
		env.Go(func(p *sim.Proc) {
			var spent sim.Duration
			hop := func(n int64) {
				if far {
					d := ic.transferTime(n)
					p.Sleep(d)
					spent += d
				}
			}
			p.Wait(nd.Shard(0).Mgr.Ready())
			t0 := p.Now()
			spec := w.Spec(i)
			hop(0) // REQ
			v, shard, err := nd.Connect(p, spec)
			if err != nil {
				errs[i] = err
				return
			}
			hop(0) // ACK
			if errs[i] = remoteCycle(p, v, spec, hop); errs[i] != nil {
				return
			}
			turnaround = max(turnaround, p.Now().Sub(t0))
			wire += spent
			hop(0) // RLS
			errs[i] = v.Release(p)
			hop(0) // ACK
			nd.Release(shard, spec.InBytes, spec.OutBytes)
		})
	}
	if err := env.Run(); err != nil {
		return 0, 0, err
	}
	return turnaround, wire, errors.Join(errs...)
}

// remoteCycle is VGPU.RunCycle with every protocol message charged to hop.
func remoteCycle(p *sim.Proc, v *vgpu.VGPU, spec *task.Spec, hop func(n int64)) error {
	hop(spec.InBytes) // SND
	if err := v.SendInput(p, nil); err != nil {
		return err
	}
	hop(0) // ACK
	hop(0) // STR
	if err := v.Start(p); err != nil {
		return err
	}
	hop(0) // ACK
	polls := v.Polls
	if err := v.Wait(p); err != nil {
		return err
	}
	for n := 2 * (v.Polls - polls); n > 0; n-- {
		hop(0) // STP, WAIT or ACK
	}
	hop(0) // RCV
	if err := v.ReceiveOutput(p, nil); err != nil {
		return err
	}
	hop(spec.OutBytes) // ACK
	return nil
}

// RenderExtensionCluster formats the cluster comparison.
func RenderExtensionCluster(rows []ClusterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXTENSION. LOCAL VIRTUALIZATION VS REMOTE GPU ACCESS (8 procs, 120 MB/proc)\n")
	fmt.Fprintf(&b, "  %-26s %14s %14s %8s\n", "setup", "turnaround", "on the wire", "remote")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %12.1fms %12.1fms %8d\n", r.Setup, r.TurnaroundMS, r.NetworkMS, r.RemoteProcs)
	}
	return b.String()
}

// MultiGPURow is one GPU-count point of the multi-GPU extension.
type MultiGPURow struct {
	GPUs         int
	TurnaroundMS float64
	Scaling      float64 // vs the 1-GPU turnaround
}

// ExtensionMultiGPU runs 8 device-saturating Electrostatics processes
// against a node of 1, 2 and 4 per-GPU manager shards (least-sessions
// placement; each shard's STR barrier spans the 8/gpus sessions placed
// on it).
func ExtensionMultiGPU() ([]MultiGPURow, error) {
	w := PaperSaturatingWorkload()
	run := func(gpus int) (float64, error) {
		env := sim.NewEnv()
		nd, err := node.New(node.Config{
			GPUs:      gpus,
			Arch:      fermi.TeslaC2070(),
			Parties:   8 / gpus,
			SharedEnv: env,
		})
		if err != nil {
			return 0, err
		}
		if err := nd.Start(); err != nil {
			return 0, err
		}
		var makespan sim.Duration
		errs := make([]error, 8)
		for i := 0; i < 8; i++ {
			i := i
			env.Go(func(p *sim.Proc) {
				// Clients never pay Tinit (the paper's design): wait out
				// every shard's bring-up before starting the clock.
				for _, sh := range nd.Shards() {
					p.Wait(sh.Mgr.Ready())
				}
				t0 := p.Now()
				v, _, err := nd.Connect(p, w.Spec(i))
				if err != nil {
					errs[i] = err
					return
				}
				if err := v.RunCycle(p, nil, nil); err != nil {
					errs[i] = err
					return
				}
				if d := p.Now().Sub(t0); d > makespan {
					makespan = d
				}
			})
		}
		if err := env.Run(); err != nil {
			return 0, err
		}
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return makespan.Seconds() * 1e3, nil
	}
	var rows []MultiGPURow
	var base float64
	for _, gpus := range []int{1, 2, 4} {
		ms, err := run(gpus)
		if err != nil {
			return nil, fmt.Errorf("multigpu %d: %w", gpus, err)
		}
		if gpus == 1 {
			base = ms
		}
		rows = append(rows, MultiGPURow{GPUs: gpus, TurnaroundMS: ms, Scaling: base / ms})
	}
	return rows, nil
}

// ExtensionNPB runs the two extra NPB kernels (IS, FT at class S) through
// both sharing modes, extending Figures 11-15's evaluation family.
func ExtensionNPB() ([]TurnaroundSeries, error) {
	var out []TurnaroundSeries
	for _, w := range []workloads.Workload{workloads.ClassSIS(), workloads.ClassSFT()} {
		s, err := runSeries(w, MaxProcs)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PaperSaturatingWorkload returns the Table IV workload that fills the
// whole device (Electrostatics), used by the multi-GPU scaling runs.
func PaperSaturatingWorkload() workloads.Workload {
	return workloads.PaperElectrostatics()
}

// RenderExtensionMultiGPU formats the multi-GPU scaling table.
func RenderExtensionMultiGPU(rows []MultiGPURow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXTENSION. MULTI-GPU MANAGER SCALING (8 Electrostatics procs)\n")
	fmt.Fprintf(&b, "  %-6s %14s %10s\n", "GPUs", "turnaround", "scaling")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6d %12.1fms %9.2fx\n", r.GPUs, r.TurnaroundMS, r.Scaling)
	}
	return b.String()
}
