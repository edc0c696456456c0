package ipc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// TestPlacementPoliciesEndToEnd boots a 2-shard daemon once per placement
// name the daemon has known. Under the one policy it drives the daemon
// over the wire: four uniform sessions opened back to back (and held open)
// must balance 2/2, and the cycle a placed session runs must come back
// correct from whichever shard owns it. Each retired name must fail
// start-up with an error naming the one policy.
func TestPlacementPoliciesEndToEnd(t *testing.T) {
	for _, policy := range []string{node.LeastSessions, "least-memory", "weighted-bytes", "slo"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := ServerConfig{
				Listen:     []string{"inproc://policy-" + policy},
				Functional: true,
				GPUs:       2,
				Placement:  policy,
			}
			if policy != node.LeastSessions {
				if s, err := NewServer(cfg); err == nil || !strings.Contains(err.Error(), node.LeastSessions) {
					if s != nil {
						s.Close()
					}
					t.Fatalf("NewServer with placement %q: %v, want an error naming %s", policy, err, node.LeastSessions)
				}
				return
			}
			s := startDaemon(t, cfg)
			const n = 1024
			var sessions []*Session
			for i := 0; i < 4; i++ {
				c := s.dial(t, Options{})
				sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, i)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, sess)
			}
			// Uniform sessions arriving one at a time alternate, so the
			// split is 2/2.
			for shard := 0; shard < 2; shard++ {
				opened := -1
				if !s.submitProbe(shard, func() { opened = s.node.Shard(shard).Mgr.SessionsOpened() }) {
					t.Fatal("server closed early")
				}
				if opened != 2 {
					t.Fatalf("policy %s: gpu %d opened %d sessions, want 2", policy, shard, opened)
				}
			}
			// Each session's verbs are served by the shard it was bound to.
			in := make([]float32, 2*n)
			for i := 0; i < n; i++ {
				in[i] = float32(i)
				in[n+i] = 3
			}
			out := make([]byte, n*4)
			for _, sess := range sessions {
				if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
					t.Fatal(err)
				}
				res := cuda.Float32s(byteMem(out), 0, n)
				if res[99] != 102 {
					t.Fatalf("policy %s: out[99] = %g, want 102", policy, res[99])
				}
				if err := sess.Release(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestShardedDisconnectMidBAT is the cross-shard lifecycle check: a raw
// client dies mid-BAT on one shard while a survivor works on another.
// The survivor completes (its own shard's barrier times out), and the
// dead client's session, device memory, and placement reservation are
// all reclaimed from the shard that owned them.
func TestShardedDisconnectMidBAT(t *testing.T) {
	s := startDaemon(t, ServerConfig{
		Listen:         []string{"inproc://sharded-midbat"},
		GPUs:           2,
		Parties:        2,
		Functional:     true,
		BarrierTimeout: 100 * sim.Millisecond,
	})

	// The victim speaks the raw wire: REQ, one unanswered BAT, hang up.
	vc := dialRaw(t, s.Addr())
	const n = 1024
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	if err := vc.WriteRequest(&transport.Request{Verb: "REQ", Ref: &ref, Rank: 0, Plane: transport.PlaneInline}); err != nil {
		t.Fatal(err)
	}
	resp, err := vc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ACK" {
		t.Fatalf("victim REQ: %s %s", resp.Status, resp.Err)
	}
	id := resp.Session
	if err := vc.WriteRequest(&transport.Request{Verb: "BAT", Batch: []transport.Request{
		{Verb: "SND", Session: id, Data: make([]byte, resp.InBytes)},
		{Verb: "STR", Session: id},
		{Verb: "STP", Session: id},
		{Verb: "RCV", Session: id},
	}}); err != nil {
		t.Fatal(err)
	}
	vc.Close() // parked at its shard's barrier, never to return

	// The survivor lands on the other shard (least-sessions) and runs a
	// full cycle behind its own barrier timeout.
	survivor := s.dial(t, Options{})
	done := make(chan error, 1)
	go func() {
		sess, err := survivor.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}, 1)
		if err != nil {
			done <- err
			return
		}
		if err := sess.RunCycle(make([]byte, sess.inBytes), make([]byte, sess.outBytes)); err != nil {
			done <- err
			return
		}
		done <- sess.Release()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("survivor: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivor wedged behind a dead client on another shard")
	}
}

// TestCloseReclaimsEveryShard opens one session per shard with staged
// input, then closes the daemon: Close must tear every shard's sessions
// down before its owner goroutine exits, returning all device memory.
func TestCloseReclaimsEveryShard(t *testing.T) {
	s := startDaemon(t, ServerConfig{
		Listen:     []string{"inproc://close-reclaim"},
		Functional: true,
		GPUs:       2,
	})
	for i := 0; i < 2; i++ {
		c := s.dial(t, Options{})
		sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 4096}}, i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.SendInput(make([]byte, sess.inBytes)); err != nil {
			t.Fatal(err)
		}
		// The session stays open: Close has to reclaim it.
	}
	for shard := 0; shard < 2; shard++ {
		open, mem := -1, int64(-1)
		if !s.submitProbe(shard, func() {
			open = gvmCount(t, s.cfg.Metrics, s.node.Shard(shard).Mgr, "gvm_open_sessions")
			mem = s.node.Shard(shard).Dev.MemInUse()
		}) {
			t.Fatal("server closed early")
		}
		if open != 1 || mem <= 0 {
			t.Fatalf("gpu %d before Close: %d open sessions, %d bytes in use; want 1 and > 0", shard, open, mem)
		}
	}
	// The audit after this Close reads every shard directly: no turn runs.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsMultiGPUScrape holds one session on each of two shards and
// scrapes /metrics live: the manager and node series must appear once
// per gpu label, with the placement gauges draining after release.
func TestMetricsMultiGPUScrape(t *testing.T) {
	s := startDaemon(t, ServerConfig{
		Listen:     []string{"inproc://scrape-shards"},
		Functional: true,
		GPUs:       2,
	})
	var sessions []*Session
	for i := 0; i < 2; i++ {
		c := s.dial(t, Options{})
		sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 512}}, i)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	samples := scrapeMetrics(t, s.cfg.Metrics)
	for shard := 0; shard < 2; shard++ {
		gpu := fmt.Sprintf(`{gpu="%d"}`, shard)
		if got := samples["gvm_sessions_opened_total"+gpu]; got != 1 {
			t.Errorf("gvm_sessions_opened_total%s = %d, want 1", gpu, got)
		}
		if got := samples["node_placed_sessions"+gpu]; got != 1 {
			t.Errorf("node_placed_sessions%s = %d, want 1", gpu, got)
		}
		if got := samples["gvm_mem_in_use_bytes"+gpu]; got <= 0 {
			t.Errorf("gvm_mem_in_use_bytes%s = %d, want > 0", gpu, got)
		}
		if got := samples["gvmd_owner_queue_wait_ns_count"+gpu]; got < 1 {
			t.Errorf("gvmd_owner_queue_wait_ns_count%s = %d, want >= 1", gpu, got)
		}
	}
	for _, sess := range sessions {
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
	samples = scrapeMetrics(t, s.cfg.Metrics)
	for shard := 0; shard < 2; shard++ {
		gpu := fmt.Sprintf(`{gpu="%d"}`, shard)
		if got := samples["node_placed_sessions"+gpu]; got != 0 {
			t.Errorf("node_placed_sessions%s = %d after release, want 0", gpu, got)
		}
		if got := samples["gvm_sessions_closed_total"+gpu]; got != 1 {
			t.Errorf("gvm_sessions_closed_total%s = %d, want 1", gpu, got)
		}
	}
}
