package vgpu

import (
	"strconv"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
)

// lcgStep is the deterministic RNG used by the residency tests (no
// math/rand, so runs replay exactly).
func lcgStep(s *uint32) uint32 {
	*s = *s*1664525 + 1013904223
	return *s
}

// mixIn builds the deterministic input for session sess's cycle c: the
// pressured run and the unconstrained reference run feed every cycle the
// same bytes, so their outputs must match bit for bit.
func mixIn(sess, cycle, n int) []float32 {
	in := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		in[i] = float32((i*7 + sess*13 + cycle*31) % 251)
		in[n+i] = float32((i*3 + sess*5 + cycle*17) % 257)
	}
	return in
}

// runResidencyMix runs `sessions` concurrent vecadd clients for `cycles`
// cycles each on a card with memBytes of device memory, idling a random
// while at idlePct% of the verb boundaries, and returns every session's
// per-cycle output bytes. The manager's series land in reg.
func runResidencyMix(t *testing.T, reg *metrics.Registry, memBytes int64, sessions, cycles int, seed, idlePct uint32) ([][][]byte, *gvm.Manager, *gpusim.Device) {
	t.Helper()
	const n = 4096
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = memBytes
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch, Functional: true})
	mgr := gvm.New(env, gvm.Config{Device: dev, QuotaBytes: 1 << 30, Metrics: reg})
	mgr.Start()
	host := Serve(mgr, Config{})
	outs := make([][][]byte, sessions)
	for s := 0; s < sessions; s++ {
		s := s
		outs[s] = make([][]byte, cycles)
		env.Go(func(p *sim.Proc) {
			rng := seed + uint32(s)*977
			p.Wait(mgr.Ready())
			v, err := host.Connect(p, vecSpec(n))
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			// idleWindow idles the session a random while: other sessions'
			// REQs and restores land in the gap and evict it, and its next
			// verb restores it.
			idleWindow := func() {
				if idlePct == 0 || lcgStep(&rng)%100 >= idlePct {
					return
				}
				p.Sleep(sim.Duration(lcgStep(&rng)%2000) * sim.Microsecond)
			}
			for c := 0; c < cycles; c++ {
				in := mixIn(s, c, n)
				if err := v.SendInput(p, cuda.HostFloat32Bytes(in)); err != nil {
					t.Errorf("session %d cycle %d: SND: %v", s, c, err)
					return
				}
				idleWindow()
				if err := v.Start(p); err != nil {
					t.Errorf("session %d cycle %d: STR: %v", s, c, err)
					return
				}
				if err := v.Wait(p); err != nil {
					t.Errorf("session %d cycle %d: STP: %v", s, c, err)
					return
				}
				idleWindow()
				out := make([]byte, n*4)
				if err := v.ReceiveOutput(p, out); err != nil {
					t.Errorf("session %d cycle %d: RCV: %v", s, c, err)
					return
				}
				outs[s][c] = out
				idleWindow()
			}
			if err := v.Release(p); err != nil {
				t.Errorf("session %d: RLS: %v", s, err)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return outs, mgr, dev
}

// TestRandomizedSuspendResumeInterleavings is the residency layer's
// equivalence test: three clients cycling on a card that fits only ~1.5
// of their arenas, with randomized idle windows between their verbs, so
// that evictions (suspendSession) and restores (resumeSession) interleave
// with each other and with the cycles at seeded points, must produce
// byte-identical outputs to the same clients on an unconstrained card that
// never evicts.
func TestRandomizedSuspendResumeInterleavings(t *testing.T) {
	const sessions, cycles = 3, 3
	reg := metrics.NewRegistry()
	ref, refMgr, _ := runResidencyMix(t, reg, 256<<20, sessions, cycles, 1, 0)
	if gvmCount(t, reg, refMgr, "gvm_evictions_total") != 0 {
		t.Fatalf("reference run evicted %d sessions on an unconstrained card", gvmCount(t, reg, refMgr, "gvm_evictions_total"))
	}
	for _, seed := range []uint32{2, 77, 4242} {
		reg := metrics.NewRegistry()
		got, mgr, dev := runResidencyMix(t, reg, 96<<10, sessions, cycles, seed, 40)
		if gvmCount(t, reg, mgr, "gvm_evictions_total") == 0 {
			t.Errorf("seed %d: no evictions on a 96 KiB card under 3x pressure", seed)
		}
		if gvmCount(t, reg, mgr, "gvm_restores_total") == 0 {
			t.Errorf("seed %d: nothing was ever restored", seed)
		}
		for s := 0; s < sessions; s++ {
			for c := 0; c < cycles; c++ {
				if string(got[s][c]) != string(ref[s][c]) {
					t.Errorf("seed %d: session %d cycle %d output differs from the never-evicted reference", seed, s, c)
				}
			}
		}
		if dev.MemReserved() != 0 || dev.MemInUse() != 0 {
			t.Errorf("seed %d: leak after release: reserved=%d resident=%d", seed, dev.MemReserved(), dev.MemInUse())
		}
	}
}

// TestEvictedSessionTransparentRestore pins the lazy restore path: a
// session evicted by another's REQ keeps its reservation off the card and
// is restored by its own next verb, which evicts the other in turn — the
// device swaps arenas instead of rejecting work.
func TestEvictedSessionTransparentRestore(t *testing.T) {
	const n = 4096
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // fits one ~48 KiB session
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch, Functional: true})
	reg := metrics.NewRegistry()
	mgr := gvm.New(env, gvm.Config{Device: dev, QuotaBytes: 1 << 30, Metrics: reg})
	mgr.Start()
	host := Serve(mgr, Config{})
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v1, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		in := mixIn(0, 0, n)
		if err := v1.SendInput(p, cuda.HostFloat32Bytes(in)); err != nil {
			t.Error(err)
			return
		}
		// v2's REQ must evict idle v1 — including its staged input.
		v2, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Errorf("second REQ did not evict the idle session: %v", err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_evictions_total") != 1 || gvmCount(t, reg, mgr, "gvm_restores_total") != 0 {
			t.Errorf("evictions=%d restores=%d after REQ, want 1/0", gvmCount(t, reg, mgr, "gvm_evictions_total"), gvmCount(t, reg, mgr, "gvm_restores_total"))
		}
		// v1's arena sits in a host snapshot; its logical reservation
		// persists, so reserved now exceeds resident.
		if res, inUse := dev.MemReserved(), dev.MemInUse(); res <= inUse {
			t.Errorf("reserved %d <= resident %d after eviction", res, inUse)
		}
		// v1's next verb transparently restores it (evicting v2 in turn)
		// and the pre-eviction input survives the round trip.
		if err := v1.Start(p); err != nil {
			t.Errorf("STR on evicted session: %v", err)
			return
		}
		if err := v1.Wait(p); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, n*4)
		if err := v1.ReceiveOutput(p, out); err != nil {
			t.Error(err)
			return
		}
		res := cuda.Float32s(memBytes(out), 0, n)
		for i := 0; i < n; i++ {
			if res[i] != in[i]+in[n+i] {
				t.Errorf("out[%d] = %g, want %g (restored input corrupted)", i, res[i], in[i]+in[n+i])
				return
			}
		}
		if gvmCount(t, reg, mgr, "gvm_restores_total") == 0 {
			t.Error("transparent restore did not count as a restore")
		}
		if gvmCount(t, reg, mgr, "gvm_evictions_total") != 2 {
			t.Errorf("evictions = %d, want 2: v1's restore evicts idle v2", gvmCount(t, reg, mgr, "gvm_evictions_total"))
		}
		if err := v1.Release(p); err != nil {
			t.Error(err)
		}
		if err := v2.Release(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemReserved() != 0 || dev.MemInUse() != 0 {
		t.Fatalf("leak: reserved=%d resident=%d", dev.MemReserved(), dev.MemInUse())
	}
}

// TestRestoreFailureLeavesSnapshotRetryable drives a restore into memory
// pressure it cannot relieve at once: the only other session is parked at
// an STR barrier (running, hence evict-ineligible) and holds the whole
// card. Each failed attempt must leave the snapshot intact, and the restore
// backs off until the barrier timeout flushes the holder, then succeeds and
// the session computes from its pre-eviction input.
func TestRestoreFailureLeavesSnapshotRetryable(t *testing.T) {
	const n = 4096
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // one session's arenas at a time
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch, Functional: true})
	reg := metrics.NewRegistry()
	mgr := gvm.New(env, gvm.Config{
		Metrics: reg,
		Device:  dev, QuotaBytes: 1 << 30,
		Parties: 2, BarrierTimeout: 250 * sim.Millisecond,
	})
	mgr.Start()
	host := Serve(mgr, Config{})
	var in []float32
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		if err := v.SendInput(p, nil); err != nil {
			t.Error(err)
			return
		}
		// Parks at the Parties=2 barrier holding the card until the
		// timeout flush; running sessions cannot be evicted.
		if err := v.Start(p); err != nil {
			t.Error(err)
			return
		}
		if err := v.Wait(p); err != nil {
			t.Error(err)
			return
		}
		if err := v.ReceiveOutput(p, nil); err != nil {
			t.Error(err)
			return
		}
		if err := v.Release(p); err != nil {
			t.Error(err)
		}
	})
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		v, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Error(err)
			return
		}
		in = mixIn(1, 0, n)
		if err := v.SendInput(p, cuda.HostFloat32Bytes(in)); err != nil {
			t.Error(err)
			return
		}
		// Let the holder evict this idle session and park at the barrier,
		// then start while it pins the card.
		p.Sleep(100 * sim.Millisecond)
		if gvmCount(t, reg, mgr, "gvm_evictions_total") == 0 || dev.MemReserved() <= dev.MemInUse() {
			t.Errorf("the holder did not evict this session: %d evictions", gvmCount(t, reg, mgr, "gvm_evictions_total"))
		}
		restores := gvmCount(t, reg, mgr, "gvm_restores_total")
		if err := v.Start(p); err != nil {
			t.Error(err)
			return
		}
		if got := gvmCount(t, reg, mgr, "gvm_restores_total") - restores; got != 1 {
			t.Errorf("STR restored the arena %d times, want 1", got)
		}
		if err := v.Wait(p); err != nil {
			t.Error(err)
			return
		}
		out := make([]byte, n*4)
		if err := v.ReceiveOutput(p, out); err != nil {
			t.Error(err)
			return
		}
		res := cuda.Float32s(memBytes(out), 0, n)
		for i := 0; i < n; i++ {
			if res[i] != in[i]+in[n+i] {
				t.Errorf("out[%d] = %g, want %g (snapshot damaged by a failed restore)", i, res[i], in[i]+in[n+i])
				return
			}
		}
		if err := v.Release(p); err != nil {
			t.Error(err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dev.MemReserved() != 0 || dev.MemInUse() != 0 {
		t.Fatalf("leak: reserved=%d resident=%d", dev.MemReserved(), dev.MemInUse())
	}
}

// TestPriorityOrdersEviction pins the victim policy: under pressure the
// lowest-priority session goes first, even when a higher-priority one is
// colder (older lastUsed).
func TestPriorityOrdersEviction(t *testing.T) {
	const n = 4096
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 112 << 10 // fits two ~48 KiB sessions, not three
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch})
	reg := metrics.NewRegistry()
	mgr := gvm.New(env, gvm.Config{Device: dev, QuotaBytes: 1 << 30, Metrics: reg})
	mgr.Start()
	host := Serve(mgr, Config{})
	env.Go(func(p *sim.Proc) {
		p.Wait(mgr.Ready())
		high, err := host.ConnectOpts(p, gvm.Request{Spec: vecSpec(n), Priority: 10})
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * sim.Millisecond) // make high the LRU victim candidate
		low, err := host.ConnectOpts(p, gvm.Request{Spec: vecSpec(n), Priority: 0})
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(10 * sim.Millisecond)
		third, err := host.Connect(p, vecSpec(n))
		if err != nil {
			t.Errorf("third REQ did not evict: %v", err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_evictions_total") != 1 {
			t.Errorf("evictions = %d, want 1", gvmCount(t, reg, mgr, "gvm_evictions_total"))
		}
		// high (priority 10) must still be resident: its verb restores
		// nothing. low (priority 0) was the victim despite being more
		// recently used.
		if err := high.SendInput(p, nil); err != nil {
			t.Error(err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_restores_total") != 0 {
			t.Errorf("high-priority session was evicted (restores = %d)", gvmCount(t, reg, mgr, "gvm_restores_total"))
		}
		if err := low.SendInput(p, nil); err != nil {
			t.Error(err)
			return
		}
		if gvmCount(t, reg, mgr, "gvm_restores_total") != 1 {
			t.Errorf("low-priority session was not the victim (restores = %d)", gvmCount(t, reg, mgr, "gvm_restores_total"))
		}
		for _, v := range []*VGPU{high, low, third} {
			if err := v.Release(p); err != nil {
				t.Error(err)
			}
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// gvmCount reads m's sample of a gvm family, family{gpu="<m's GPU>"}, from
// reg, the registry the test built the manager with. A family
// reg does not hold fails the test and reads -1: a misspelt name never
// reads as a zero.
func gvmCount(t *testing.T, reg *metrics.Registry, m *gvm.Manager, family string) int {
	t.Helper()
	n, ok := reg.Value(family, metrics.L("gpu", strconv.Itoa(m.GPUIndex())))
	if !ok {
		t.Errorf("the registry holds no sample %s for gpu %d", family, m.GPUIndex())
		return -1
	}
	return int(n)
}
