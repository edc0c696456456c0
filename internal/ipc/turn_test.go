package ipc

import (
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// The lock model (DESIGN.md §3, "Daemon concurrency model"): a shard's owner
// is whoever holds its lock, for one turn; a connection serves its own frame
// in a turn of its own and, when the frame did not finish in it, waits on its
// session's channel with the shard released. None of these asserts a time.

// TestParkedFrameHoldsNoShard parks one connection's STR at a two-party
// barrier and, while it sits there, takes turns on the same shard from other
// goroutines — a probe, a third connection's REQ and RLS — and runs whole
// cycles on the daemon's second shard. The parked frame returns when its
// peer's connection takes the turn that completes the barrier.
func TestParkedFrameHoldsNoShard(t *testing.T) {
	s := startDaemon(t, ServerConfig{
		Listen:  []string{"unix://" + tempSocket(t)},
		Parties: 2, GPUs: 2, Functional: true,
	})
	const n = 256
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	opened := func(shard int) int {
		t.Helper()
		v := -1
		if !s.submitProbe(shard, func() { v = s.node.Shard(shard).Mgr.SessionsOpened() }) {
			t.Fatal("server closed early")
		}
		return v
	}
	// open dials a connection of its own and opens a session that must land
	// on shard (least-sessions alternates, ties to the lower index).
	open := func(shard int) *Session {
		t.Helper()
		before := opened(shard)
		c := s.dial(t, Options{})
		sess, err := c.Request(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		if opened(shard) != before+1 {
			t.Fatalf("session %d did not land on gpu %d", sess.ID(), shard)
		}
		return sess
	}
	a, b, peer, d := open(0), open(1), open(0), open(1)
	in, out := make([]byte, a.inBytes), make([]byte, a.outBytes)

	if err := a.SendInput(in); err != nil {
		t.Fatal(err)
	}
	mgr0 := s.node.Shard(0).Mgr
	seen := gvmCount(t, s.cfg.Metrics, mgr0, "gvm_requests_total")
	parked := make(chan error, 1)
	go func() { parked <- a.Start() }()
	for gvmCount(t, s.cfg.Metrics, mgr0, "gvm_requests_total") == seen {
		time.Sleep(time.Millisecond)
	}
	// The STR has reached gvm; a turn of our own orders us behind the one
	// that parked it — and would never be had if that connection's goroutine
	// still held the shard.
	opened(0)

	// A third connection is served on the parked frame's shard.
	extra := open(0)
	if err := extra.Release(); err != nil {
		t.Fatalf("RLS on gpu 0 beside a parked frame: %v", err)
	}
	// The other shard runs a whole two-party cycle.
	cycled := make(chan error, 1)
	go func() { cycled <- b.RunCycle(in, make([]byte, len(out))) }()
	if err := d.RunCycle(in, out); err != nil {
		t.Fatalf("cycle on gpu 1 beside a parked frame: %v", err)
	}
	if err := <-cycled; err != nil {
		t.Fatalf("cycle on gpu 1 beside a parked frame: %v", err)
	}
	select {
	case err := <-parked:
		t.Fatalf("the STR returned (%v) before its peer arrived", err)
	default:
	}

	// The peer's turn completes the barrier and finishes both frames.
	if err := peer.SendInput(in); err != nil {
		t.Fatal(err)
	}
	if err := peer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked STR: %v", err)
	}
	for _, sess := range []*Session{a, peer} {
		if err := sess.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Receive(out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoTurnAfterClose: goroutines keep asking for turns on every shard while
// the daemon closes, and one straggler is still inside its turn — on a shard
// with no session for Close to release — when Close begins. Close waits the
// straggler out, and once it has returned no turn runs anymore: a late
// hang-up is told the server is gone instead of touching a shard whose rings
// are unmapped (under -race this is RingHost.Close against a straggler's
// sweep).
func TestNoTurnAfterClose(t *testing.T) {
	for _, scheme := range []string{"unix", "ring"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			s := startDaemon(t, ServerConfig{
				Listen: []string{scheme + "://" + filepath.Join(dir, "gvmd.sock")},
				ShmDir: dir, GPUs: 2, Functional: true,
			})
			c := s.dial(t, Options{})
			if _, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}, 0); err != nil {
				t.Fatal(err)
			}
			var (
				closed, halt atomic.Bool
				late         atomic.Int32
				wg           sync.WaitGroup
			)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(shard int) {
					defer wg.Done()
					for !halt.Load() {
						s.submitProbe(shard, func() {
							if closed.Load() {
								late.Add(1)
							}
						})
					}
				}(g % 2)
			}
			var straggling atomic.Bool
			entered, release := make(chan struct{}), make(chan struct{})
			go s.submitProbe(1, func() {
				straggling.Store(true)
				close(entered)
				<-release
				straggling.Store(false)
			})
			<-entered
			go func() {
				time.Sleep(20 * time.Millisecond) // room for a Close that does not wait
				close(release)
			}()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if straggling.Load() {
				t.Error("Close returned while a turn was still running")
			}
			closed.Store(true)
			for shard := 0; shard < 2; shard++ {
				if s.submitProbe(shard, func() { late.Add(1) }) {
					t.Errorf("gpu %d: a turn was granted after Close returned", shard)
				}
			}
			halt.Store(true)
			wg.Wait()
			if n := late.Load(); n != 0 {
				t.Errorf("%d turns ran after Close returned", n)
			}
		})
	}
}

// TestSocketRLSSweepsItsRingSession: the lone socket RLS of a ring session —
// what a client sends when it could not attach the ring — unmaps and unlinks
// the session's segment inside its own turn. The ring owner loop may be
// parked on its doorbell; nothing else is going to sweep.
func TestSocketRLSSweepsItsRingSession(t *testing.T) {
	s := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	c, err := DialOptions(s.Addr(), Options{ShmDir: t.TempDir()}) // not the daemon's directory: attach fails
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	for try := 0; try < 20; try++ {
		if _, err := c.Request(ref, 0); err == nil {
			t.Fatal("Request attached a segment from the wrong directory")
		}
		if segs := ringSegments(t, s.dir); len(segs) != 0 {
			t.Fatalf("try %d: the RLS was answered with %v still on disk", try, segs)
		}
	}
}

// BenchmarkReqUnderBusyRing is what a socket client waits for a shard two
// spinning ring clients keep busy: one op is a REQ plus an RLS over the
// socket of a ring daemon, each a turn the connection has to win against the
// ring owner loop. The median is reported beside the mean; CHANGES.md quotes
// it, nothing asserts it.
func BenchmarkReqUnderBusyRing(b *testing.B) {
	s := startDaemon(b, ServerConfig{Listen: []string{"ring://" + tempSocket(b)}, Functional: true})
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}
	var (
		halt atomic.Bool
		wg   sync.WaitGroup
	)
	for i := 0; i < 2; i++ {
		rc := s.dial(b, Options{})
		sess, err := rc.Request(ref, i)
		if err != nil {
			b.Fatal(err)
		}
		if sess.Plane() != transport.PlaneRing {
			b.Fatalf("plane = %q, want ring", sess.Plane())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, out := make([]byte, sess.inBytes), make([]byte, sess.outBytes)
			for !halt.Load() {
				if err := sess.RunCycle(in, out); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	c := s.dial(b, Options{Plane: transport.PlaneShm})
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		sess, err := c.Request(ref, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Release(); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	halt.Store(true)
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50-us")
}
