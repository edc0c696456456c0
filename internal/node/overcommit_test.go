package node

import (
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// ocSpec builds a vector-add spec over n float32 elements (2n in, n out).
func ocSpec(n int) *task.Spec {
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

// TestOvercommitAdmitsBeyondCapacity pins the layer split: at overcommit
// 2.0 the node admits reserved bytes up to twice the card, the manager's
// eviction engine makes them resident on demand, and one more session is
// still rejected — by the node, naming the overcommit factor.
func TestOvercommitAdmitsBeyondCapacity(t *testing.T) {
	const n = 4096 // 48 KiB per session
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // fits one session's arenas
	reg := metrics.NewRegistry()
	nd, err := New(Config{GPUs: 1, Arch: arch, Overcommit: 2.0, SharedEnv: env, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	env.Go(func(p *sim.Proc) {
		p.Wait(nd.Shard(0).Mgr.Ready())
		v1, idx1, err := nd.Connect(p, ocSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		// Second session exceeds physical capacity but fits the 2x quota:
		// admitted, with the manager evicting idle v1 to make it resident.
		v2, idx2, err := nd.Connect(p, ocSpec(n))
		if err != nil {
			t.Errorf("session within the 2x quota rejected: %v", err)
			return
		}
		if gvmCount(t, reg, nd.Shard(0).Mgr, "gvm_evictions_total") == 0 {
			t.Error("second session became resident without an eviction")
		}
		// Third exceeds the quota: the NODE rejects it (the managers never
		// see it), and the error teaches reserved vs resident.
		_, _, err = nd.Connect(p, ocSpec(n))
		if err == nil {
			t.Error("session beyond the overcommit quota admitted")
		} else if !strings.Contains(err.Error(), "overcommit 2") ||
			!strings.Contains(err.Error(), "reserved") {
			t.Errorf("rejection does not explain the quota: %v", err)
		}
		for _, rel := range []struct {
			v   interface{ Release(*sim.Proc) error }
			idx int
		}{{v1, idx1}, {v2, idx2}} {
			if err := rel.v.Release(p); err != nil {
				t.Error(err)
			}
			nd.Release(rel.idx, ocSpec(n).InBytes, ocSpec(n).OutBytes)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for _, l := range nd.Loads() {
		if l.Sessions != 0 || l.Bytes != 0 || l.Resident != 0 {
			t.Fatalf("shard %d not drained: %+v", l.Shard, l)
		}
	}
}

// TestOvercommitStressTenX is the residency layer's acceptance stress:
// ten full-card functional sessions packed onto one GPU at overcommit 10
// all run cycles concurrently — every output byte-identical to the
// host-computed expectation — while the eviction engine shuttles arenas
// between device and host snapshots. Afterwards nothing leaks: no open
// sessions, no resident bytes, no reservations.
func TestOvercommitStressTenX(t *testing.T) {
	const (
		n        = 4096 // 48 KiB of arenas per session
		sessions = 10
		cycles   = 2
	)
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // one session resident at a time
	reg := metrics.NewRegistry()
	nd, err := New(Config{
		GPUs: 1, Arch: arch, Functional: true,
		Overcommit: 10, SharedEnv: env, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	mgr := nd.Shard(0).Mgr
	dev := nd.Shard(0).Dev
	for s := 0; s < sessions; s++ {
		s := s
		env.Go(func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			spec := ocSpec(n)
			v, idx, err := nd.Connect(p, spec)
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			for c := 0; c < cycles; c++ {
				in := make([]float32, 2*n)
				for i := 0; i < n; i++ {
					in[i] = float32((i + s*3 + c*11) % 127)
					in[n+i] = float32((i*5 + s + c) % 131)
				}
				out := make([]byte, n*4)
				if err := v.RunCycle(p, cuda.HostFloat32Bytes(in), out); err != nil {
					t.Errorf("session %d cycle %d: %v", s, c, err)
					return
				}
				got := cuda.Float32s(sliceMemOC(out), 0, n)
				for i := 0; i < n; i++ {
					if got[i] != in[i]+in[n+i] {
						t.Errorf("session %d cycle %d: out[%d] = %g, want %g",
							s, c, i, got[i], in[i]+in[n+i])
						return
					}
				}
			}
			if err := v.Release(p); err != nil {
				t.Errorf("session %d: release: %v", s, err)
			}
			nd.Release(idx, spec.InBytes, spec.OutBytes)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if gvmCount(t, reg, mgr, "gvm_evictions_total") == 0 || gvmCount(t, reg, mgr, "gvm_restores_total") == 0 {
		t.Fatalf("10x packing ran without swapping: evictions=%d restores=%d",
			gvmCount(t, reg, mgr, "gvm_evictions_total"), gvmCount(t, reg, mgr, "gvm_restores_total"))
	}
	if open := gvmCount(t, reg, mgr, "gvm_open_sessions"); open != 0 {
		t.Fatalf("%d sessions leaked", open)
	}
	if dev.MemInUse() != 0 || dev.MemReserved() != 0 {
		t.Fatalf("leak: resident=%d reserved=%d", dev.MemInUse(), dev.MemReserved())
	}
	for _, l := range nd.Loads() {
		if l.Sessions != 0 || l.Bytes != 0 {
			t.Fatalf("placement not drained: %+v", l)
		}
	}
}

// sliceMemOC adapts a byte slice to cuda.Memory for typed views.
type sliceMemOC []byte

func (s sliceMemOC) Bytes(p cuda.DevPtr, n int64) []byte { return s[p : int64(p)+n] }
