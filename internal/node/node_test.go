package node

import (
	"fmt"
	"strconv"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// vecSpec builds a vector-add task spec over n float32 elements.
func vecSpec(n int) *task.Spec {
	return &task.Spec{
		Name:     "vecadd",
		InBytes:  int64(2 * n * 4),
		OutBytes: int64(n * 4),
		Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
			a := b.In
			bb := b.In + cuda.DevPtr(n*4)
			return []*cuda.Kernel{kernels.NewVecAdd(a, bb, b.Out, n)}, nil
		},
	}
}

type memBytes []byte

func (b memBytes) Bytes(p cuda.DevPtr, n int64) []byte { return b[p : int64(p)+n] }

// TestNodeSpreadsSessions is the multi-GPU placement acceptance test
// (formerly a vgpu test against the manager's ExtraDevices): four
// sessions over two shards land two per shard, each shard's own barrier
// (Parties=2) fills, and each device runs exactly its own kernels.
func TestNodeSpreadsSessions(t *testing.T) {
	env := sim.NewEnv()
	nd, err := New(Config{GPUs: 2, Parties: 2, SharedEnv: env})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 4)
	placed := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			for _, sh := range nd.Shards() {
				p.Wait(sh.Mgr.Ready())
			}
			v, shard, err := nd.Connect(p, vecSpec(1<<20))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i], placed[i] = v.Session(), shard
			if err := v.RunCycle(p, nil, nil); err != nil {
				t.Error(err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Least-sessions placement: two sessions per shard, two kernels each.
	if nd.Shard(0).Dev.KernelsRun != 2 || nd.Shard(1).Dev.KernelsRun != 2 {
		t.Fatalf("kernels split %d/%d, want 2/2",
			nd.Shard(0).Dev.KernelsRun, nd.Shard(1).Dev.KernelsRun)
	}
	// Session ids are striped per shard (GPUIndex+1, GPUIndex+1+GPUs, ...),
	// so they never collide across shards and the id alone names the owner.
	seen := map[int]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("session id %d minted twice", id)
		}
		seen[id] = true
		if got := (id - 1) % len(nd.shards); got != placed[i] {
			t.Errorf("session %d's id stripes to shard %d, but it was placed on shard %d", id, got, placed[i])
		}
	}
}

// TestNodeHalvesSaturatedTurnaround: 8 device-saturating sessions on two
// shards should roughly halve the one-shard makespan (each shard's
// barrier spans the 8/gpus sessions placed on it).
func TestNodeHalvesSaturatedTurnaround(t *testing.T) {
	bigSpec := func() *task.Spec {
		return &task.Spec{
			Name:    "filler",
			InBytes: 8, OutBytes: 8,
			Build: func(b *task.Buffers) ([]*cuda.Kernel, error) {
				return []*cuda.Kernel{{
					Name: "fill", Grid: cuda.Dim(14), Block: cuda.Dim(1024),
					CyclesPerThread: 1e6,
				}}, nil
			},
		}
	}
	run := func(gpus int) sim.Duration {
		env := sim.NewEnv()
		nd, err := New(Config{GPUs: gpus, Parties: 8 / gpus, SharedEnv: env})
		if err != nil {
			t.Fatal(err)
		}
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		var makespan sim.Duration
		for i := 0; i < 8; i++ {
			env.Go("c", func(p *sim.Proc) {
				for _, sh := range nd.Shards() {
					p.Wait(sh.Mgr.Ready())
				}
				t0 := p.Now()
				v, _, err := nd.Connect(p, bigSpec())
				if err != nil {
					t.Error(err)
					return
				}
				if err := v.RunCycle(p, nil, nil); err != nil {
					t.Error(err)
					return
				}
				if d := p.Now().Sub(t0); d > makespan {
					makespan = d
				}
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return makespan
	}
	one, two := run(1), run(2)
	ratio := float64(one) / float64(two)
	if ratio < 1.6 {
		t.Fatalf("2-shard speedup = %.2f, want ~2 for a saturating workload", ratio)
	}
}

// TestSuspendResumeAcrossShards runs the SUS/RES extension on both
// shards at once: each session's device footprint drops to zero on ITS
// shard while suspended, and the restored state computes the right
// answer afterwards — shard isolation for the suspend path.
func TestSuspendResumeAcrossShards(t *testing.T) {
	const n = 1024
	arch := fermi.TeslaC2070()
	arch.MemBytes = 256 << 20
	env := sim.NewEnv()
	nd, err := New(Config{GPUs: 2, Arch: arch, Functional: true, SharedEnv: env})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		i := i
		env.Go(fmt.Sprintf("client-%d", i), func(p *sim.Proc) {
			for _, sh := range nd.Shards() {
				p.Wait(sh.Mgr.Ready())
			}
			v, shard, err := nd.Connect(p, vecSpec(n))
			if err != nil {
				t.Error(err)
				return
			}
			in := make([]float32, 2*n)
			for j := 0; j < n; j++ {
				in[j] = float32(j)
				in[n+j] = float32(10 * (i + 1))
			}
			if err := v.SendInput(p, cuda.HostFloat32Bytes(in)); err != nil {
				t.Error(err)
				return
			}
			if err := v.Start(p); err != nil {
				t.Error(err)
				return
			}
			if err := v.Wait(p); err != nil {
				t.Error(err)
				return
			}
			if err := v.Suspend(p); err != nil {
				t.Error(err)
				return
			}
			if got := nd.Shard(shard).Dev.MemInUse(); got != 0 {
				t.Errorf("shard %d holds %d bytes while its session is suspended", shard, got)
			}
			if err := v.Resume(p); err != nil {
				t.Error(err)
				return
			}
			out := make([]byte, n*4)
			if err := v.ReceiveOutput(p, out); err != nil {
				t.Error(err)
				return
			}
			res := cuda.Float32s(memBytes(out), 0, n)
			for j := 0; j < n; j++ {
				if want := float32(j) + float32(10*(i+1)); res[j] != want {
					t.Errorf("client %d: out[%d] = %g, want %g", i, j, res[j], want)
					return
				}
			}
			if err := v.Release(p); err != nil {
				t.Error(err)
				return
			}
			nd.Release(shard, int64(2*n*4), int64(n*4))
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := gvmCount(nd.Shard(i).Mgr, "suspensions"); got != 1 {
			t.Errorf("shard %d suspensions = %d, want 1", i, got)
		}
		if got := gvmCount(nd.Shard(i).Mgr, "resumes"); got != 1 {
			t.Errorf("shard %d resumes = %d, want 1", i, got)
		}
	}
	for _, l := range nd.Loads() {
		if l.Sessions != 0 || l.Bytes != 0 {
			t.Errorf("shard %d placement not drained: %d sessions, %d bytes", l.Shard, l.Sessions, l.Bytes)
		}
	}
}

// gvmCount reads the manager's gvm_<name>_total counter from its registry:
// registering a series again returns the live one.
func gvmCount(m *gvm.Manager, name string) int {
	return int(m.Metrics().Counter("gvm_"+name+"_total", "", metrics.L("gpu", strconv.Itoa(m.GPUIndex()))).Value())
}
