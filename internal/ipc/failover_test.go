package ipc

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// TestDrainMigratesMidJobByteIdentical is the byte-identical mid-job
// migration check: a session sends its input and starts a cycle on
// shard A, the operator drains shard A mid-flight, and the client's
// STP/RCV — transparently re-issued after the retryable migration
// errors — must be served from shard B with the exact bytes a
// migration-free run produces. Over ring:// the session's ring moves with
// it: it leaves A's sweep, joins B's, and once released leaves nothing
// behind — no segment file, and no doorbell rung or futex woken for it
// while both sweep loops are parked.
func TestDrainMigratesMidJobByteIdentical(t *testing.T) {
	for _, scheme := range []string{"inproc", "ring"} {
		t.Run(scheme, func(t *testing.T) {
			addr := "inproc://drain-midjob"
			if scheme == "ring" {
				addr = "ring://" + tempSocket(t)
			}
			drainMidJob(t, startDaemon(t, ServerConfig{Listen: []string{addr}, Functional: true, GPUs: 2}))
		})
	}
}

func drainMidJob(t *testing.T, s *daemon) {
	const n = 1024
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Migration-free reference: same workload, same rank, same input.
	refSess, err := s.dial(t, Options{}).Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, refSess.inBytes)
	want := make([]byte, refSess.outBytes)
	w.Fill(0, in)
	if err := refSess.RunCycle(in, want); err != nil {
		t.Fatal(err)
	}
	if err := refSess.Release(); err != nil {
		t.Fatal(err)
	}

	sess, err := s.dial(t, Options{}).Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendInput(in); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}

	// Find the shard that owns the running session and drain it.
	src := owningShard(t, s, sess.ID())
	dst := 1 - src
	s.node.SetHealth(src, node.Draining)
	if got := s.node.Health(src); got != node.Draining {
		t.Fatalf("gpu %d health = %v after the drain, want draining", src, got)
	}

	// STP and RCV complete from the target shard; the bytes must match.
	if err := sess.Wait(); err != nil {
		t.Fatalf("Wait across migration: %v", err)
	}
	out := make([]byte, sess.outBytes)
	if err := sess.Receive(out); err != nil {
		t.Fatalf("Receive across migration: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("RCV digest changed across mid-job migration")
	}

	// The session now lives on the other shard, and the source is empty.
	// The target counts the session as soon as it adopts it; the move's
	// metrics follow the adoption's turn, its latency last, so wait for both.
	open := func(shard int) int { return gvmCount(t, s.cfg.Metrics, s.node.Shard(shard).Mgr, "gvm_open_sessions") }
	for deadline := 400; ; deadline-- {
		srcOpen, dstOpen := open(src), open(dst)
		if srcOpen == 0 && dstOpen == 1 && scrapeMetrics(t, s.cfg.Metrics)["node_migration_latency_ns_count"] >= 1 {
			break
		}
		if deadline == 0 {
			t.Fatalf("session placement after drain: src %d open, dst %d open; want 0 and 1",
				srcOpen, dstOpen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	samples := scrapeMetrics(t, s.cfg.Metrics)
	if got := samples["node_failovers_total"]; got < 1 {
		t.Errorf("node_failovers_total = %d, want >= 1", got)
	}
	if got := samples["node_migrated_bytes_total"]; got <= 0 {
		t.Errorf("node_migrated_bytes_total = %d, want > 0", got)
	}
	if got := samples["node_migration_latency_ns_count"]; got < 1 {
		t.Errorf("node_migration_latency_ns_count = %d, want >= 1", got)
	}
	ringSessions := func(samples map[string]int64) (onSrc, onDst int64) {
		return samples[fmt.Sprintf(`gvmd_ring_sessions{gpu="%d"}`, src)],
			samples[fmt.Sprintf(`gvmd_ring_sessions{gpu="%d"}`, dst)]
	}
	if s.rings != nil {
		if onSrc, onDst := ringSessions(samples); onSrc != 0 || onDst != 1 {
			t.Errorf("ring sessions after the move: %d on the source's sweep, %d on the target's; want 0 and 1", onSrc, onDst)
		}
	}

	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	if s.rings == nil {
		return
	}

	// Both sweep loops park (each has armed its doorbell); from then on the
	// idle daemon rings no doorbell and pays no futex wake: the move left no
	// forwarding behind.
	for deadline := time.Now().Add(5 * time.Second); s.rings.Shard(src).Door().Load()&1 == 0 || s.rings.Shard(dst).Door().Load()&1 == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sweep loops never parked together")
		}
	}
	bell := fmt.Sprintf(`gvmd_ring_doorbells_total{gpu="%d"}`, dst)
	bells0 := scrapeMetrics(t, s.cfg.Metrics)[bell]
	_, wakes0 := shm.FutexStats()
	time.Sleep(300 * time.Millisecond)
	bells := scrapeMetrics(t, s.cfg.Metrics)[bell] - bells0
	_, wakes := shm.FutexStats()
	if bells != 0 || wakes != wakes0 {
		t.Errorf("idle after the move: the target's doorbell rang %d times and %d futex wakes were paid in 300ms, want 0 and 0", bells, wakes-wakes0)
	}
}

// TestDrainAllServesInPlace: a node drained whole (gvmd's SIGUSR1) has no
// healthy shard to move a session to, so every session keeps serving where
// it is and its arenas never leave the device. Each session's next cycle —
// which first tries to rescue it off its draining shard — returns the right
// bytes, and no shard swaps a byte out. A move that extracted before it
// looked for a target took every arena D2H and back for nothing.
func TestDrainAllServesInPlace(t *testing.T) {
	const n = 4096
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	for _, gpus := range []int{1, 2} {
		for _, plane := range []string{transport.PlaneShm, transport.PlaneInline} {
			t.Run(fmt.Sprintf("gpus=%d/%s", gpus, plane), func(t *testing.T) {
				s := startDaemon(t, ServerConfig{
					Listen:     []string{fmt.Sprintf("inproc://drainall-in-place-%d-%s", gpus, plane)},
					Functional: true,
					GPUs:       gpus,
				})
				c := s.dial(t, Options{Plane: plane})
				out := make([]byte, 4*n)
				cycle := func(sess *Session, seed int) {
					t.Helper()
					in, want := vecaddInput(n, seed)
					if err := sess.RunCycle(in, out); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out, want) {
						t.Fatalf("session %d: wrong bytes", sess.ID())
					}
				}
				sessions := make([]*Session, 2*gpus)
				for i := range sessions {
					var err error
					if sessions[i], err = c.Request(ref, 0); err != nil {
						t.Fatal(err)
					}
					cycle(sessions[i], i)
				}
				for _, l := range s.node.Loads() {
					if l.Sessions != 2 {
						t.Fatalf("gpu %d holds %d sessions, want 2", l.Shard, l.Sessions)
					}
				}

				s.DrainAll()
				for i, sess := range sessions {
					cycle(sess, len(sessions)+i)
				}
				samples := scrapeMetrics(t, s.cfg.Metrics)
				for gpu := 0; gpu < gpus; gpu++ {
					key := fmt.Sprintf(`gvm_swap_bytes_total{dir="out",gpu="%d"}`, gpu)
					if got, ok := samples[key]; !ok || got != 0 {
						t.Errorf("%s = %d (exported: %v), want 0: a drain with nowhere to go moved arenas", key, got, ok)
					}
				}
				for _, sess := range sessions {
					if err := sess.Release(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestRingREQRacesDrain races a ring REQ against a drain of gpu 0 on fresh
// two-shard daemons: the drain starts 0–45 µs after the REQ publishes its
// session on gpu 0, while the REQ is still on its way back to the client.
// The evacuation moves the session, and its ring ends up on exactly one
// shard's sweep — once it could be left on gpu 0's too, both sweeps then
// consuming one SPSC ring — and the session serves a cycle and its RLS. The
// client's Timeout turns a hang into a failure.
func TestRingREQRacesDrain(t *testing.T) {
	const tries = 20
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < tries; try++ {
		delay := time.Duration(try%10) * 5 * time.Microsecond
		t.Run(fmt.Sprint(try), func(t *testing.T) {
			s := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true, GPUs: 2})
			c := s.dial(t, Options{Timeout: 2 * time.Second})
			var (
				sess   *Session
				reqErr error
				over   atomic.Bool
			)
			requested := make(chan struct{})
			go func() {
				defer close(requested)
				sess, reqErr = c.Request(ref, 0)
				over.Store(true)
			}()
			// The ring joins gpu 0's sweep right before the REQ publishes
			// its session.
			for ring := s.cfg.Metrics.Gauge("gvmd_ring_sessions", "", metrics.L("gpu", "0")); ring.Value() == 0 && !over.Load(); {
			}
			for start := time.Now(); time.Since(start) < delay; {
			}
			s.node.SetHealth(0, node.Draining)
			<-requested
			if reqErr != nil {
				t.Fatalf("try %d (drain after %v): REQ: %v", try, delay, reqErr)
			}
			// A second evacuation waits out the background one (the session's
			// migMu), so the session has come to rest; a probe turn on each
			// shard then sweeps. It does not wait when the background move has
			// already remapped the session, which it does before counting
			// itself: poll the counter.
			s.disp.EvacuateShard(0, s.submit)
			for shard := 0; shard < 2; shard++ {
				if !s.submitProbe(shard, func() {}) {
					t.Fatal("server closed early")
				}
			}
			samples := scrapeMetrics(t, s.cfg.Metrics)
			for deadline := 400; samples["node_failovers_total"] == 0 && deadline > 0; deadline-- {
				time.Sleep(5 * time.Millisecond)
				samples = scrapeMetrics(t, s.cfg.Metrics)
			}
			if got := samples["node_failovers_total"]; got != 1 {
				t.Fatalf("try %d (drain after %v): node_failovers_total = %d, want 1", try, delay, got)
			}
			if sum := samples[`gvmd_ring_sessions{gpu="0"}`] + samples[`gvmd_ring_sessions{gpu="1"}`]; sum != 1 {
				t.Fatalf("try %d (drain after %v): the session's ring is on %d shards' sweeps, want 1", try, delay, sum)
			}
			in, out := make([]byte, sess.inBytes), make([]byte, sess.outBytes)
			w.Fill(0, in)
			if err := sess.RunCycle(in, out); err != nil {
				t.Fatalf("try %d (drain after %v): cycle: %v", try, delay, err)
			}
			if err := w.Check(0, out); err != nil {
				t.Fatalf("try %d (drain after %v): %v", try, delay, err)
			}
			if err := sess.Release(); err != nil {
				t.Fatalf("try %d (drain after %v): RLS: %v", try, delay, err)
			}
		})
	}
}

// TestChaosFaultInjection8Clients is the chaos check: fault injection
// on gpu 0 under 8-client pipelined load on a 2-shard daemon. Every
// cycle the fault interrupts is transparently re-run after failover, so
// no session is lost, every rank's output is byte-identical to a
// fault-free serial reference, and both shards drain to zero after
// release. The deterministic case trips on an exact launch count; the
// seeded case draws per launch, exercising the same path under a
// randomized trigger.
func TestChaosFaultInjection8Clients(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
	}{
		{"deterministic-hang", "gpu=0,after=6,kind=hang"},
		{"seeded-random", "gpu=0,rate=0.3,seed=11,kinds=hang|fatal"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan, err := gpusim.ParseFaultSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			s := startDaemon(t, ServerConfig{
				Listen:     []string{"inproc://chaos-" + tc.name},
				Functional: true,
				GPUs:       2,
				FaultPlan:  plan,
			})
			const clients, cycles = 8, 3
			ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
			w, err := workloads.FromRef(ref)
			if err != nil {
				t.Fatal(err)
			}

			outs := make([][]byte, clients)
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for r := 0; r < clients; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = func() error {
						c, err := DialOptions(s.Addr(), Options{ShmDir: s.dir})
						if err != nil {
							return err
						}
						defer c.Close()
						sess, err := c.Request(ref, rank)
						if err != nil {
							return err
						}
						in := make([]byte, sess.inBytes)
						out := make([]byte, sess.outBytes)
						w.Fill(rank, in)
						for i := 0; i < cycles; i++ {
							if err := sess.RunCycle(in, out); err != nil {
								return fmt.Errorf("rank %d cycle %d: %w", rank, i, err)
							}
							if err := w.Check(rank, out); err != nil {
								return fmt.Errorf("rank %d cycle %d: %w", rank, i, err)
							}
						}
						outs[rank] = out
						return sess.Release()
					}()
				}(r)
			}
			wg.Wait()
			for rank, err := range errs {
				if err != nil {
					t.Fatalf("rank %d lost its session: %v", rank, err)
				}
			}

			// Fault-free serial reference: gpu 0 is Unhealthy by now, so
			// these sessions run on the surviving shard, one at a time.
			c := s.dial(t, Options{NoPipeline: true})
			for rank := 0; rank < clients; rank++ {
				sess, err := c.Request(ref, rank)
				if err != nil {
					t.Fatal(err)
				}
				in := make([]byte, sess.inBytes)
				want := make([]byte, sess.outBytes)
				w.Fill(rank, in)
				if err := sess.RunCycle(in, want); err != nil {
					t.Fatal(err)
				}
				if err := sess.Release(); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(outs[rank], want) {
					t.Fatalf("rank %d: output under fault injection differs from fault-free serial reference", rank)
				}
			}

			samples := scrapeMetrics(t, s.cfg.Metrics)
			faults := samples[`gpusim_faults_total{gpu="0",kind="hang"}`] +
				samples[`gpusim_faults_total{gpu="0",kind="fatal"}`]
			if tc.name == "deterministic-hang" && faults != 1 {
				t.Errorf("gpusim_faults_total on gpu 0 = %d, want exactly 1", faults)
			}
			if faults > 0 {
				// A fault fired on a launch, so some session was mid-cycle
				// on gpu 0 and had to move.
				if got := samples["node_failovers_total"]; got < 1 {
					t.Errorf("node_failovers_total = %d after %d faults, want >= 1", got, faults)
				}
				if got := s.node.Health(0); got != node.Unhealthy {
					t.Errorf("gpu 0 health = %v after hang/fatal fault, want unhealthy", got)
				}
				if got := samples[`node_shard_health{gpu="0"}`]; got != int64(node.Unhealthy) {
					t.Errorf(`node_shard_health{gpu="0"} = %d, want %d`, got, int64(node.Unhealthy))
				}
			} else if tc.name == "seeded-random" {
				t.Logf("seeded injector drew no fault this run (spec %q)", tc.spec)
			}
			if got := s.node.Health(1); got != node.Healthy {
				t.Errorf("gpu 1 health = %v, want healthy (faults target gpu 0)", got)
			}
		})
	}
}
