package node

import (
	"strconv"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/vgpu"
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
	for i := 0; i < 4; i++ {
		env.Go(func(p *sim.Proc) {
			for _, sh := range nd.Shards() {
				p.Wait(sh.Mgr.Ready())
			}
			v, _, err := nd.Connect(p, vecSpec(1<<20))
			if err != nil {
				t.Error(err)
				return
			}
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
	// so they never collide across shards and the id alone names the owner:
	// of the four ids minted, each shard holds exactly those striped to it.
	env.Go(func(p *sim.Proc) {
		for id := 1; id <= 4; id++ {
			for i, sh := range nd.Shards() {
				if held, want := sh.Mgr.ReleaseSession(p, id), (id-1)%len(nd.shards) == i; held != want {
					t.Errorf("shard %d holds session %d: %v, want %v", i, id, held, want)
				}
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
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
			env.Go(func(p *sim.Proc) {
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

// TestEvictionStaysOnItsShard packs two sessions onto each of two
// one-session cards: each shard's second REQ evicts its first session —
// whose input is already staged — and only its own: the other shard's
// arena stays on its card. Each evicted session's next verb restores it on
// its shard, evicting its sibling in turn, and computes from the staged
// input.
func TestEvictionStaysOnItsShard(t *testing.T) {
	const n = 4096 // 48 KiB of arenas per session
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // one session's arenas per card
	env := sim.NewEnv()
	reg := metrics.NewRegistry()
	nd, err := New(Config{GPUs: 2, Arch: arch, Functional: true, Overcommit: 2, SharedEnv: env, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	evictions := func(shard int) int { return gvmCount(t, reg, nd.Shard(shard).Mgr, "gvm_evictions_total") }
	env.Go(func(p *sim.Proc) {
		for _, sh := range nd.Shards() {
			p.Wait(sh.Mgr.Ready())
		}
		type placed struct {
			v     *vgpu.VGPU
			shard int
		}
		connect := func() placed {
			v, shard, err := nd.Connect(p, vecSpec(n))
			if err != nil {
				t.Fatal(err)
			}
			return placed{v, shard}
		}
		first := []placed{connect(), connect()}
		if first[0].shard == first[1].shard {
			t.Fatalf("both first sessions landed on shard %d", first[0].shard)
		}
		ins := make([][]float32, 2)
		for i, s := range first {
			ins[i] = make([]float32, 2*n)
			for j := 0; j < n; j++ {
				ins[i][j] = float32(j)
				ins[i][n+j] = float32(10 * (i + 1))
			}
			if err := s.v.SendInput(p, cuda.HostFloat32Bytes(ins[i])); err != nil {
				t.Fatal(err)
			}
		}
		var second []placed
		for k := range first {
			other := nd.Shard(first[1-k].shard).Dev.MemInUse()
			s := connect()
			second = append(second, s)
			if s.shard != first[k].shard {
				t.Fatalf("second session %d landed on shard %d, want %d", k, s.shard, first[k].shard)
			}
			if evictions(s.shard) != 1 {
				t.Errorf("shard %d evictions = %d after its second REQ, want 1", s.shard, evictions(s.shard))
			}
			if got := nd.Shard(first[1-k].shard).Dev.MemInUse(); got != other || evictions(first[1-k].shard) != k {
				t.Errorf("shard %d's REQ touched shard %d: %d bytes resident (was %d), %d evictions",
					s.shard, first[1-k].shard, got, other, evictions(first[1-k].shard))
			}
		}
		for i, s := range first {
			out := make([]byte, n*4)
			if err := s.v.RunCycle(p, nil, out); err != nil {
				t.Fatal(err)
			}
			res := cuda.Float32s(memBytes(out), 0, n)
			for j := 0; j < n; j++ {
				if want := ins[i][j] + ins[i][n+j]; res[j] != want {
					t.Fatalf("session on shard %d: out[%d] = %g, want %g", s.shard, j, res[j], want)
				}
			}
		}
		for _, s := range append(first, second...) {
			if err := s.v.Release(p); err != nil {
				t.Error(err)
			}
			nd.Release(s.shard, int64(2*n*4), int64(n*4))
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, restores := evictions(i), gvmCount(t, reg, nd.Shard(i).Mgr, "gvm_restores_total"); got != 2 || restores != 1 {
			t.Errorf("shard %d: %d evictions, %d restores; want 2 and 1", i, got, restores)
		}
	}
	for _, l := range nd.Loads() {
		if l.Sessions != 0 || l.Bytes != 0 || l.Resident != 0 {
			t.Errorf("shard %d not drained: %+v", l.Shard, l)
		}
	}
}

// gvmCount reads m's sample of a gvm family, family{gpu="<m's GPU>"}, from
// reg, the registry the test built the node with. A family reg
// does not hold fails the test and reads -1: a misspelt name never reads
// as a zero.
func gvmCount(t *testing.T, reg *metrics.Registry, m *gvm.Manager, family string) int {
	t.Helper()
	n, ok := reg.Value(family, metrics.L("gpu", strconv.Itoa(m.GPUIndex())))
	if !ok {
		t.Errorf("the registry holds no sample %s for gpu %d", family, m.GPUIndex())
		return -1
	}
	return int(n)
}
