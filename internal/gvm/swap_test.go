package gvm

import (
	"bytes"
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

// A swap hands the arena's backing store to the snapshot and back
// (suspend.go), so the snapshot must survive whatever interrupts a
// restore, and a migration must carry exactly the arena's bytes. Both
// tests run a real vecadd cycle first, so the arenas hold input and
// results rather than zeros.

// swapTestManager is a functional manager on a card of memBytes.
func swapTestManager(memBytes int64) (*sim.Env, *gpusim.Device, *Manager) {
	env := sim.NewEnv()
	arch := fermi.TeslaC2070()
	arch.MemBytes = memBytes
	dev := gpusim.MustNew(env, gpusim.Config{Arch: arch, Functional: true})
	m := New(env, Config{Device: dev, QuotaBytes: 1 << 30})
	m.Start()
	return env, dev, m
}

// arenas copies the resident session's device buffers.
func arenas(dev *gpusim.Device, s *session) (in, out []byte) {
	in = append(in, dev.Bytes(s.devIn, s.spec.InBytes)...)
	out = append(out, dev.Bytes(s.devOut, s.spec.OutBytes)...)
	return in, out
}

// onCard reports whether the allocation at ptr is on the card: Bytes on an
// address that is off it panics.
func onCard(dev *gpusim.Device, ptr cuda.DevPtr) (on bool) {
	defer func() {
		if recover() != nil {
			on = false
		}
	}()
	dev.Bytes(ptr, 1)
	return true
}

// TestFailedPartialRestoreKeepsSnapshot: the card has room for the evicted
// session's first buffer but not its second, and the only other session is
// mid-flush, so nothing is evictable. The restore fails after it placed
// the first buffer; it must give the device back exactly what it took,
// leave the session its addresses with none of them on the card, keep the
// snapshot whole, and the retry — once the flush is over — must bring back
// byte-identical arenas.
func TestFailedPartialRestoreKeepsSnapshot(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0) // 8 KiB in, 4 KiB out
	slow := SlowKernels(w.Spec(1))
	// Both sessions' arenas would need 24 KiB; with the pinning session
	// resident, 8 KiB stay free: the input buffer fits, the output does not.
	env, dev, m := swapTestManager(256 + 20<<10)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		victim := OpenBare(t, p, m, Request{Spec: spec})
		victim.run(p, input, STP)
		s := m.sessions[victim.ID]
		wantIn, wantOut := arenas(dev, s)
		addrIn, addrOut := s.devIn, s.devOut
		m.suspendSession(p, s) // what evictForAlloc does to its victim
		if dev.MemInUse() != 0 {
			t.Fatalf("MemInUse = %d after the eviction, want 0", dev.MemInUse())
		}

		pin := OpenBare(t, p, m, Request{Spec: slow})
		pin.run(p, input, STR)
		resident, start := dev.MemInUse(), p.Now()

		err := m.resumeSession(p, s)
		if err == nil || !strings.Contains(err.Error(), "out of device memory") {
			t.Fatalf("restore beside a running session: %v, want out of device memory", err)
		}
		if got, want := p.Now().Sub(start), dev.Arch().TransferTime(spec.InBytes, true, true); got != want {
			t.Fatalf("failed restore took %v, want the input buffer's pinned H2D (%v): it did not fail on the second buffer", got, want)
		}
		if s.susp == nil || s.devIn != addrIn || s.devOut != addrOut || onCard(dev, s.devIn) || onCard(dev, s.devOut) ||
			dev.MemInUse() != resident {
			t.Fatalf("failed restore left devIn=%#x (on the card %v) devOut=%#x (on the card %v), %d bytes resident (want %d), snapshot %v; want the addresses %#x and %#x, off the card",
				uint64(s.devIn), onCard(dev, s.devIn), uint64(s.devOut), onCard(dev, s.devOut), dev.MemInUse(), resident, s.susp != nil,
				uint64(addrIn), uint64(addrOut))
		}
		if !bytes.Equal(s.susp.in[:spec.InBytes], wantIn) || !bytes.Equal(s.pinOut.Data(), wantOut) {
			t.Fatal("failed restore damaged the snapshot")
		}

		pin.must(p, STP) // the flush is over: the pinning session is evictable
		if err := m.resumeSession(p, s); err != nil {
			t.Fatalf("retried restore: %v", err)
		}
		gotIn, gotOut := arenas(dev, s)
		if !bytes.Equal(gotIn, wantIn) || !bytes.Equal(gotOut, wantOut) {
			t.Fatal("retried restore is not byte-identical")
		}
		victim.must(p, RCV)
		if err := w.Check(0, victim.Out); err != nil {
			t.Errorf("RCV after the retried restore: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationRoundTripMovesArena: ExtractSession → Encode →
// DecodeExtracted → AdoptSession onto a second device keeps arenas and
// results byte-identical and leaves nothing on the source; a blob whose
// staged buffer is not the spec's size — a byte short, a fraction of it or
// a byte over — is refused before anything is attached: the restore puts
// the arenas on the staging.
func TestMigrationRoundTripMovesArena(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)

	var blob, wantIn, wantOut []byte
	env, src, m := swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		sf.run(p, input, STP)
		wantIn, wantOut = arenas(src, m.sessions[sf.ID])
		ext, err := m.ExtractSession(p, sf.ID)
		if err != nil {
			t.Fatal(err)
		}
		blob = ext.Encode()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if src.MemInUse() != 0 || src.MemReserved() != 0 || m.met.openSessions.Value() != 0 {
		t.Fatalf("source after extraction: %d bytes in use, %d reserved, %d sessions; want 0",
			src.MemInUse(), src.MemReserved(), m.met.openSessions.Value())
	}

	decode := func() *ExtractedSession {
		ext, err := DecodeExtracted(blob)
		if err != nil {
			t.Fatal(err)
		}
		ext.Spec = spec
		return ext
	}
	env, dst, m := swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		short := decode()
		short.PinOut = short.PinOut[:len(short.PinOut)-1]
		odd := decode()
		odd.PinIn = odd.PinIn[:100]
		long := decode()
		long.PinIn = append(long.PinIn, 0)
		for name, bad := range map[string]*ExtractedSession{"a short staged output": short, "a 100-byte staged input": odd, "a staged input longer than the spec's": long} {
			if err := m.AdoptSession(p, bad); err == nil {
				t.Errorf("AdoptSession accepted a blob with %s", name)
			}
			if dst.MemInUse() != 0 || dst.MemReserved() != 0 || m.met.openSessions.Value() != 0 {
				t.Fatalf("refused blob (%s) left %d bytes in use, %d reserved, %d sessions",
					name, dst.MemInUse(), dst.MemReserved(), m.met.openSessions.Value())
			}
		}

		ext := decode()
		if err := m.AdoptSession(p, ext); err != nil {
			t.Fatal(err)
		}
		s := m.sessions[ext.ID]
		if s.susp != nil {
			t.Fatal("adopted session was not materialized on an empty card")
		}
		gotIn, gotOut := arenas(dst, s)
		if !bytes.Equal(gotIn, wantIn) || !bytes.Equal(gotOut, wantOut) {
			t.Fatal("migrated arenas are not byte-identical")
		}
		sf := &BareSession{t: t, m: m, ID: ext.ID}
		sf.bind(m.Staging(ext.ID))
		sf.must(p, RCV)
		if err := w.Check(0, sf.Out); err != nil {
			t.Errorf("RCV on the target: %v", err)
		}
		sf.must(p, RLS)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.MemInUse() != 0 || dst.MemReserved() != 0 {
		t.Fatalf("target after release: %d bytes in use, %d reserved", dst.MemInUse(), dst.MemReserved())
	}
}

// TestAdoptRefusesScratchOfTheWrongSize: a restore replays the snapshot's
// scratch buffers as the allocations the kernel builder asks for, so a blob
// that decodes cleanly but carries a scratch buffer smaller than the task
// builds it (or two of them swapped) used to be adopted, and the first STR
// ran a kernel off the end of the small allocation: a panic on the shard
// owner, reachable off the wire through ADP. It must be refused before
// anything is attached.
func TestAdoptRefusesScratchOfTheWrongSize(t *testing.T) {
	w := workloads.ClassSIS() // scratch: a 512 KiB block histogram, ~8 KiB of offsets
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)

	var blob []byte
	env, _, m := swapTestManager(4 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		sf.run(p, input, STP)
		ext, err := m.ExtractSession(p, sf.ID)
		if err != nil {
			t.Fatal(err)
		}
		blob = ext.Encode()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	decode := func() *ExtractedSession {
		ext, err := DecodeExtracted(blob)
		if err != nil {
			t.Fatal(err)
		}
		ext.Spec = spec
		return ext
	}
	env, dst, m := swapTestManager(4 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		// Each lie goes through the wire form, so a peer can send it.
		rewire := func(ext *ExtractedSession) *ExtractedSession {
			bad, err := DecodeExtracted(ext.Encode())
			if err != nil {
				t.Errorf("the wire form does not carry the lie: %v", err)
				return decode()
			}
			bad.Spec = spec
			return bad
		}
		shrunk := decode()
		sn := shrunk.snap
		sn.scratch[0] = sn.scratch[0][:256]
		swapped := decode()
		sn = swapped.snap
		sn.scratch[0], sn.scratch[1] = sn.scratch[1], sn.scratch[0]
		extra := decode()
		sn = extra.snap
		sn.scratch = append(sn.scratch, make([]byte, 256))
		for name, bad := range map[string]*ExtractedSession{"a shrunk scratch buffer": rewire(shrunk), "swapped scratch buffers": rewire(swapped), "a scratch buffer the task does not build": rewire(extra)} {
			// Errorf and return, not Fatalf: a sim process that exits by
			// Goexit hangs the environment, and this test must fail fast.
			if err := m.AdoptSession(p, bad); err == nil || IsRetryable(err.Error()) {
				t.Errorf("AdoptSession of a blob with %s: %v, want a final refusal", name, err)
				return
			}
			if dst.MemInUse() != 0 || dst.MemReserved() != 0 || m.met.openSessions.Value() != 0 {
				t.Errorf("refused blob (%s) left %d bytes in use, %d reserved, %d sessions",
					name, dst.MemInUse(), dst.MemReserved(), m.met.openSessions.Value())
				return
			}
		}

		ext := decode()
		if err := m.AdoptSession(p, ext); err != nil {
			t.Error(err)
			return
		}
		sf := &BareSession{t: t, m: m, ID: ext.ID}
		sf.bind(m.Staging(ext.ID))
		sf.run(p, input, RCV) // the adopted session's scratch is the task's: a whole cycle runs
		if err := w.Check(0, sf.Out); err != nil {
			t.Errorf("cycle on the target: %v", err)
		}
		sf.must(p, RLS)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionKeepsAddressesKernelsAndOps: a session keeps its device
// addresses, its kernels and its prepared flush ops across evictions — on
// the shard that opened it and on one that adopted it, which builds them
// once — so a restore builds nothing, and every cycle after a restore reads
// back byte-identical results.
func TestEvictionKeepsAddressesKernelsAndOps(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	var want []byte
	// cycles evicts b's session three times, each followed by a whole
	// cycle whose SND restores it.
	cycles := func(p *sim.Proc, m *Manager, b *BareSession) {
		s := m.sessions[b.ID]
		devIn, k0, op0 := s.devIn, s.kernels[0], &s.ops[0]
		restores := m.met.restores.Value()
		for i := 0; i < 3; i++ {
			m.suspendSession(p, s)
			b.run(p, input, RCV)
			if s.devIn != devIn || s.kernels[0] != k0 || &s.ops[0] != op0 {
				t.Errorf("restore %d: devIn %#x, kernel %p, op %p; before the eviction %#x, %p, %p",
					i, uint64(s.devIn), s.kernels[0], &s.ops[0], uint64(devIn), k0, op0)
			}
			if !bytes.Equal(b.Out, want) {
				t.Errorf("restore %d: the cycle's results differ from the first cycle's", i)
			}
		}
		if got := m.met.restores.Value() - restores; got != 3 {
			t.Errorf("%d restores in three evicted cycles, want 3", got)
		}
	}

	var blob []byte
	env, _, m := swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		b := OpenBare(t, p, m, Request{Spec: spec})
		b.run(p, input, RCV)
		if err := w.Check(0, b.Out); err != nil {
			t.Errorf("first cycle: %v", err)
			return
		}
		want = append([]byte(nil), b.Out...)
		cycles(p, m, b)
		ext, err := m.ExtractSession(p, b.ID)
		if err != nil {
			t.Error(err)
			return
		}
		blob = ext.Encode()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	env, _, m = swapTestManager(1 << 20)
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		ext, err := DecodeExtracted(blob)
		if err != nil {
			t.Error(err)
			return
		}
		ext.Spec = spec
		if err := m.AdoptSession(p, ext); err != nil {
			t.Error(err)
			return
		}
		b := &BareSession{t: t, m: m, ID: ext.ID}
		b.bind(m.Staging(ext.ID))
		cycles(p, m, b)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStagedBuffersLiveOnStaging: a session's device output buffer, and its
// input buffer unless a kernel writes it, are the staging BindDirect gave it
// — the same memory, of exactly the staged length, also where that length
// is no whole number of allocation granules (vecadd at n = 1000 stages
// 8 000 + 4 000 bytes) — before a cycle, after it and after an eviction and
// restore. CG rewrites its input, so its device input is its own.
func TestStagedBuffersLiveOnStaging(t *testing.T) {
	vec := workloads.VectorAdd(1000)
	cg := workloads.CG(100, 3, 2, 2)
	env, dev, m := swapTestManager(1 << 22)
	same := func(a, b []byte) bool { return &a[0] == &b[0] && len(a) == len(b) }
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		for _, w := range []workloads.Workload{vec, cg} {
			spec := w.Spec(0)
			b := OpenBare(t, p, m, Request{Spec: spec})
			s := m.sessions[b.ID]
			check := func(when string) {
				t.Helper()
				in, out := dev.Bytes(s.devIn, spec.InBytes), dev.Bytes(s.devOut, spec.OutBytes)
				if same(in, b.In) == spec.WritesIn || !same(out, b.Out) {
					t.Errorf("%s %s: device input is staging: %v (WritesIn %v), device output is staging: %v",
						spec.Name, when, same(in, b.In), spec.WritesIn, same(out, b.Out))
				}
			}
			check("after REQ")
			input := make([]byte, spec.InBytes)
			w.Fill(0, input)
			b.run(p, input, RCV)
			if err := w.Check(0, b.Out); err != nil {
				t.Error(err)
			}
			check("after a cycle")
			m.suspendSession(p, s)
			if err := m.resumeSession(p, s); err != nil {
				t.Fatal(err)
			}
			check("after an eviction")
			b.must(p, RLS)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
