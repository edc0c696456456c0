package gvm

import (
	"strings"
	"testing"

	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

// A session's state is its phase and its residency (gvm.go): paging the
// arena out, by the manager or by the client, must keep the phase, and a
// migration must carry both. These tests pin what a client sees, and the
// name gvm gives the state.

// expectErr issues v and wants an ERR whose text holds sub.
func expectErr(t *testing.T, p *sim.Proc, b *BareSession, v Verb, sub string) {
	t.Helper()
	if st, msg := b.Verb(p, v); st != ERR || !strings.Contains(msg, sub) {
		t.Errorf("%v answered %v %q, want ERR %q", v, st, msg, sub)
	}
}

// TestSuspendedSurvivesMigration: a session its client suspended must
// arrive on the target still suspended — not restored, refusing the verbs
// that need its arena — until the client's RES brings it back with its
// results intact; directly and through the MIG blob alike.
func TestSuspendedSurvivesMigration(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)

	extract := func() *ExtractedSession {
		var ext *ExtractedSession
		env, _, m := swapTestManager(1 << 20)
		env.Go("source", func(p *sim.Proc) {
			p.Wait(m.Ready())
			sf := OpenBare(t, p, m, Request{Spec: spec})
			sf.run(p, input, STP)
			sf.must(p, SUS)
			var err error
			if ext, err = m.ExtractSession(p, sf.ID); err != nil {
				t.Fatal(err)
			}
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return ext
	}
	encoded := func() *ExtractedSession {
		ext, err := DecodeExtracted(extract().Encode())
		if err != nil {
			t.Fatal(err)
		}
		ext.Spec = spec
		return ext
	}
	for name, ext := range map[string]func() *ExtractedSession{"direct": extract, "encoded": encoded} {
		t.Run(name, func(t *testing.T) {
			ext := ext()
			env, dst, m := swapTestManager(1 << 20)
			env.Go("target", func(p *sim.Proc) {
				p.Wait(m.Ready())
				if err := m.AdoptSession(p, ext); err != nil {
					t.Fatal(err)
				}
				if dst.MemInUse() != 0 {
					t.Errorf("the suspended session was restored on adoption: %d bytes resident", dst.MemInUse())
				}
				sf := &BareSession{t: t, m: m, ID: ext.ID}
				sf.bind(m.Staging(ext.ID))
				for _, v := range []Verb{SND, STR, RCV} {
					expectErr(t, p, sf, v, v.String()+" on suspended session")
				}
				if st, msg := sf.Verb(p, RES); st != ACK {
					t.Fatalf("RES on the target: %v %s", st, msg)
				}
				sf.must(p, RCV)
				if err := w.Check(0, sf.Out); err != nil {
					t.Errorf("RCV after RES on the target: %v", err)
				}
				sf.must(p, RLS)
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEvictedIdleStaysIdle: an idle session that never ran, evicted, is
// restored transparently by its next verb and is idle again — not done —
// so RCV still has nothing to return.
func TestEvictedIdleStaysIdle(t *testing.T) {
	spec := workloads.VectorAdd(SurfaceTestN).Spec(0)
	env, dev, m := swapTestManager(1 << 20)
	env.Go("driver", func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		m.InjectEvicted(p, sf.ID)
		expectErr(t, p, sf, RCV, "RCV before completion")
		if m.met.restores.Value() != 1 || dev.MemInUse() == 0 {
			t.Errorf("RCV restored %d times, %d bytes resident; want the arena back", m.met.restores.Value(), dev.MemInUse())
		}
		expectErr(t, p, sf, STP, "STP before STR")
		if got := m.StateOf(sf.ID); got != "idle" {
			t.Errorf("state after the restore: %s, want idle", got)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendedRerunResumesAsRerun: suspending a session whose interrupted
// cycle is still owed, then resuming it, leaves the cycle owed — STP
// replays it and RCV returns its results.
func TestSuspendedRerunResumesAsRerun(t *testing.T) {
	w := workloads.VectorAdd(SurfaceTestN)
	spec := w.Spec(0)
	input := make([]byte, spec.InBytes)
	w.Fill(0, input)
	env, _, m := swapTestManager(1 << 20)
	env.Go("driver", func(p *sim.Proc) {
		p.Wait(m.Ready())
		sf := OpenBare(t, p, m, Request{Spec: spec})
		sf.run(p, input, SND)
		m.InjectRerun(sf.ID)
		sf.must(p, SUS)
		sf.must(p, RES)
		if got := m.StateOf(sf.ID); got != "rerun" {
			t.Errorf("state after SUS, RES: %s, want rerun", got)
		}
		sf.must(p, STP)
		sf.must(p, RCV)
		if err := w.Check(0, sf.Out); err != nil {
			t.Errorf("RCV of the replayed cycle: %v", err)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}
