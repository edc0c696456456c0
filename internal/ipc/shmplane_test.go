package ipc

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// vecaddInput fills a vecadd input (a then b, n float32 each) with a
// seed-dependent pattern and returns its bytes plus the expected output
// bytes, so every cycle of every session can stage different data and a
// stale or misrouted staging region fails the comparison.
func vecaddInput(n, seed int) (in, want []byte) {
	a := make([]float32, 2*n)
	sum := make([]float32, n)
	for i := 0; i < n; i++ {
		a[i] = float32((i + seed) % 127)
		a[n+i] = float32((i*3 + seed) % 131)
		sum[i] = a[i] + a[n+i]
	}
	return cuda.HostFloat32Bytes(a), cuda.HostFloat32Bytes(sum)
}

// owningShard finds the shard whose manager holds session id.
func owningShard(t *testing.T, s *daemon, id int) int {
	t.Helper()
	for shard := 0; shard < s.node.NumShards(); shard++ {
		var in []byte
		if !s.submitProbe(shard, func() { in, _ = s.node.Shard(shard).Mgr.Staging(id) }) {
			t.Fatal("server closed early")
		}
		if in != nil {
			return shard
		}
	}
	t.Fatalf("no shard holds session %d", id)
	return -1
}

// TestShmPlaneStagingAliasesSegment: over the file-shm plane the session
// segment IS the session's pinned staging — input region at offset 0,
// output region at offset InBytes — before and after an intra-node
// migration. The test holds its own mapping of the segment file (what a
// client process has), so aliasing is observed the way a client would:
// bytes written through one view appear in the other with no verb in
// between.
func TestShmPlaneStagingAliasesSegment(t *testing.T) {
	for _, scheme := range []string{"unix", "inproc"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			addr := "inproc://shm-alias"
			if scheme == "unix" {
				addr = "unix://" + tempSocket(t)
			}
			s := startDaemon(t, ServerConfig{Listen: []string{addr}, Functional: true, GPUs: 2})
			c := s.dial(t, Options{})
			const n = 1024
			sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sess.Plane() != transport.PlaneShm {
				t.Fatalf("plane = %q, want %q", sess.Plane(), transport.PlaneShm)
			}
			segs, _ := filepath.Glob(filepath.Join(s.cfg.ShmDir, "gvmd-seg-*"))
			if len(segs) != 1 {
				t.Fatalf("segment files %v, want the session's one", segs)
			}
			view, err := shm.OpenFile(s.cfg.ShmDir, filepath.Base(segs[0]))
			if err != nil {
				t.Fatal(err)
			}
			defer view.Close()
			inB, outB := sess.inBytes, sess.outBytes

			mark := byte(0)
			checkAlias := func(when string) int {
				t.Helper()
				shard := owningShard(t, s, sess.ID())
				mgr := s.node.Shard(shard).Mgr
				mark++
				// Segment -> staging.
				seg := view.Bytes()
				seg[0], seg[inB-1], seg[inB], seg[inB+outB-1] = mark, mark+1, mark+2, mark+3
				var got [4]byte
				var lens [2]int
				s.submitProbe(shard, func() {
					in, out := mgr.Staging(sess.ID())
					lens = [2]int{len(in), len(out)}
					if int64(len(in)) != inB || int64(len(out)) != outB {
						return
					}
					got = [4]byte{in[0], in[inB-1], out[0], out[outB-1]}
					// Staging -> segment.
					in[1], out[1] = mark+4, mark+5
				})
				if int64(lens[0]) != inB || int64(lens[1]) != outB {
					t.Fatalf("%s: staging is %d+%d bytes, want %d+%d", when, lens[0], lens[1], inB, outB)
				}
				if want := [4]byte{mark, mark + 1, mark + 2, mark + 3}; got != want {
					t.Fatalf("%s: staging reads %v where the segment was written %v: staging does not alias the segment", when, got, want)
				}
				if seg[1] != mark+4 || seg[inB+1] != mark+5 {
					t.Fatalf("%s: segment reads %d,%d where staging was written %d,%d", when, seg[1], seg[inB+1], mark+4, mark+5)
				}
				mark += 5
				return shard
			}

			src := checkAlias("after REQ")
			s.node.SetHealth(src, node.Draining)
			// Wait for the target to hold it: between the source's extract and
			// the target's adopt no shard does.
			for deadline := 400; ; deadline-- {
				if gvmCount(t, s.cfg.Metrics, s.node.Shard(1-src).Mgr, "gvm_open_sessions") == 1 {
					break
				}
				if deadline == 0 {
					t.Fatalf("session never moved off draining gpu %d", src)
				}
				time.Sleep(5 * time.Millisecond)
			}
			if dst := checkAlias("after migration"); dst == src {
				t.Fatalf("session still on gpu %d after Drain", src)
			}

			// The rebound session still computes, through the same segment.
			in, want := vecaddInput(n, 5)
			out := make([]byte, outB)
			if err := sess.RunCycle(in, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Fatal("wrong result after migration")
			}
			if err := sess.Release(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShmPlaneDrainUnderLoadByteIdentical is the shm plane's chaos
// round: four pipelined clients stage different input every cycle over
// unix:// while the shard under them is drained, so sessions migrate
// with staging bound to their segments mid-stream. Every RCV must be
// byte-identical to what the inline plane returns for the same input on
// an undisturbed daemon.
func TestShmPlaneDrainUnderLoadByteIdentical(t *testing.T) {
	const clients, cycles, n = 4, 12, 4096
	// Inline reference, serial, no migration.
	refSrv := startDaemon(t, ServerConfig{Listen: []string{"tcp://127.0.0.1:0"}, Functional: true})
	rc := refSrv.dial(t, Options{})
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	want := make([][][]byte, clients)
	for r := 0; r < clients; r++ {
		sess, err := rc.Request(ref, r)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Plane() != transport.PlaneInline {
			t.Fatalf("reference plane = %q", sess.Plane())
		}
		for cy := 0; cy < cycles; cy++ {
			in, _ := vecaddInput(n, r*100+cy)
			out := make([]byte, sess.outBytes)
			if err := sess.RunCycle(in, out); err != nil {
				t.Fatal(err)
			}
			want[r] = append(want[r], out)
		}
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}

	s := startDaemon(t, ServerConfig{Functional: true, GPUs: 2})
	var wg sync.WaitGroup
	errs := make([]error, clients)
	started := make(chan struct{}, clients)
	draining := make(chan struct{})
	for r := 0; r < clients; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = func() error {
				c, err := DialOptions(s.Addr(), Options{ShmDir: s.dir})
				if err != nil {
					return err
				}
				defer c.Close()
				sess, err := c.Request(ref, r)
				if err != nil {
					return err
				}
				if sess.Plane() != transport.PlaneShm {
					return fmt.Errorf("plane = %q", sess.Plane())
				}
				out := make([]byte, sess.outBytes)
				for cy := 0; cy < cycles; cy++ {
					in, _ := vecaddInput(n, r*100+cy)
					if err := sess.RunCycle(in, out); err != nil {
						return fmt.Errorf("cycle %d: %w", cy, err)
					}
					if !bytes.Equal(out, want[r][cy]) {
						return fmt.Errorf("cycle %d: RCV differs from the inline reference", cy)
					}
					if cy == 1 {
						// Warm and mid-stream: the remaining cycles race the
						// evacuation.
						started <- struct{}{}
						<-draining
					}
				}
				return sess.Release()
			}()
		}(r)
	}
	for r := 0; r < clients; r++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("clients never got going")
		}
	}
	s.node.SetHealth(0, node.Draining)
	close(draining)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", r, err)
		}
	}
	if got := scrapeMetrics(t, s.cfg.Metrics)["node_failovers_total"]; got < 1 {
		t.Errorf("node_failovers_total = %d, want >= 1 (drain moved nobody)", got)
	}
}

// TestShmPlaneTeardownMidCycle abandons or releases bulk shm-plane
// sessions at every point where staging — which is the mapped segment —
// could still be in use, and checks the daemon survives (an access after
// the unmap would be a SIGSEGV, not an error), the segment file is gone
// and nothing stays open, resident or reserved.
func TestShmPlaneTeardownMidCycle(t *testing.T) {
	// batSteps stages in through the session's mapped plane and sends verbs
	// as one BAT frame over its carrier; every step must ACK.
	batSteps := func(sess *Session, in []byte, verbs ...string) error {
		if err := sess.plane.StageIn(in, nil); err != nil {
			return err
		}
		req := Request{Verb: "BAT"}
		for _, v := range verbs {
			req.Batch = append(req.Batch, Request{Verb: v, Session: sess.id})
		}
		resp, err := sess.trip(&req)
		if err != nil {
			return err
		}
		for i, r := range resp.Batch {
			if r.Status != "ACK" {
				return fmt.Errorf("step %d: %s", i, r.Err)
			}
		}
		return nil
	}
	const n = 1 << 20
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	for _, tc := range []struct {
		name string
		ring bool
		run  func(sess *Session, in []byte) error
	}{
		{name: "hangup-after-SND", run: func(sess *Session, in []byte) error {
			return sess.SendInput(in)
		}},
		{name: "hangup-after-STR", run: func(sess *Session, in []byte) error {
			if err := sess.SendInput(in); err != nil {
				return err
			}
			return sess.Start()
		}},
		{name: "hangup-after-BAT-SND-STR", run: func(sess *Session, in []byte) error {
			return batSteps(sess, in, "SND", "STR")
		}},
		// RLS right behind STR: the flush is still in flight when the
		// release arrives, in the same owner turn.
		{name: "RLS-behind-STR", run: func(sess *Session, in []byte) error {
			return batSteps(sess, in, "SND", "STR", "RLS")
		}},
		{name: "ring-RLS-behind-STR", ring: true, run: func(sess *Session, in []byte) error {
			return batSteps(sess, in, "SND", "STR", "RLS")
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			scheme := "unix://"
			if tc.ring {
				scheme = "ring://"
			}
			s := startDaemon(t, ServerConfig{Listen: []string{scheme + tempSocket(t)}, Functional: true})
			c := s.dial(t, Options{})
			sess, err := c.Request(ref, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ringSegments(t, s.dir)) != 1 {
				t.Fatalf("segments after REQ: %v", ringSegments(t, s.dir))
			}
			in, want := vecaddInput(n, 3)
			if err := tc.run(sess, in); err != nil {
				t.Fatal(err)
			}
			c.Close()

			// The daemon is alive and a fresh session computes correctly.
			c2 := s.dial(t, Options{})
			s2, err := c2.Request(ref, 0)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]byte, s2.outBytes)
			if err := s2.RunCycle(in, out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Fatal("wrong result from the session after the teardown")
			}
			if err := s2.Release(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShmPlaneOversubscribed is the benchmark's oversub shape — sessions
// of vecadd-4096 (48 KiB of arenas each) on a 100 KiB card that holds two
// — over the socket and the ring control plane. At overcommit 1 the two
// admitted sessions fit and the residency engine must stay idle; at 4, 2
// clients x 4 sessions make every cycle land on an evicted session whose
// staging is its segment, so evictions, restores and swap bytes must all
// be counted. On ring:// each restore runs on its own transient process,
// so two of them overlap: the row that found evictForAlloc picking a
// victim whose evacuation was still in flight. Every result must be
// right and every shard, reservation and segment file back to zero.
func TestShmPlaneOversubscribed(t *testing.T) {
	const clients, rounds, n = 2, 6, 4096
	for _, tc := range []struct {
		scheme     string
		overcommit float64
		sessions   int // per client
	}{
		{"unix", 1, 1},
		{"unix", 4, 4},
		{"ring", 1, 1},
		{"ring", 4, 4},
	} {
		t.Run(fmt.Sprintf("%s-%gx", tc.scheme, tc.overcommit), func(t *testing.T) {
			arch := fermi.TeslaC2070()
			arch.MemBytes = 102400
			s := startDaemon(t, ServerConfig{
				Listen:     []string{tc.scheme + "://" + tempSocket(t)},
				Functional: true,
				Arch:       arch,
				Overcommit: tc.overcommit,
			})
			ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
			var wg sync.WaitGroup
			errs := make([]error, clients)
			for ci := 0; ci < clients; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					errs[ci] = func() error {
						c, err := DialOptions(s.Addr(), Options{ShmDir: s.dir})
						if err != nil {
							return err
						}
						defer c.Close()
						var ss []*Session
						for k := 0; k < tc.sessions; k++ {
							sess, err := c.Request(ref, ci*tc.sessions+k)
							if err != nil {
								return fmt.Errorf("REQ %d: %w", k, err)
							}
							ss = append(ss, sess)
						}
						out := make([]byte, ss[0].outBytes)
						for r := 0; r < rounds; r++ {
							for k, sess := range ss {
								in, want := vecaddInput(n, ci*1000+r*10+k)
								if err := sess.RunCycle(in, out); err != nil {
									return fmt.Errorf("round %d session %d: %w", r, k, err)
								}
								if !bytes.Equal(out, want) {
									return fmt.Errorf("round %d session %d: wrong result", r, k)
								}
							}
						}
						for _, sess := range ss {
							if err := sess.Release(); err != nil {
								return err
							}
						}
						return nil
					}()
				}(ci)
			}
			wg.Wait()
			for ci, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", ci, err)
				}
			}
			mgr := s.node.Shard(0).Mgr
			swapOut := gvmCount(t, s.cfg.Metrics, mgr, "gvm_swap_bytes_total", metrics.L("dir", "out"))
			swapIn := gvmCount(t, s.cfg.Metrics, mgr, "gvm_swap_bytes_total", metrics.L("dir", "in"))
			evictions, restores := gvmCount(t, s.cfg.Metrics, mgr, "gvm_evictions_total"), gvmCount(t, s.cfg.Metrics, mgr, "gvm_restores_total")
			counts := fmt.Sprintf("%d evictions, %d restores, %d bytes out, %d in", evictions, restores, swapOut, swapIn)
			switch {
			case tc.overcommit > 1 && (evictions == 0 || restores == 0 || swapOut == 0 || swapIn == 0):
				t.Fatalf("the card was not oversubscribed: %s", counts)
			case tc.overcommit == 1 && (evictions != 0 || restores != 0 || swapOut != 0 || swapIn != 0):
				t.Fatalf("sessions that fit were swapped: %s", counts)
			}
		})
	}
}

// warmShmCycle opens a functional vecadd session of n elements over the
// file-shm plane of an in-process daemon, runs one cycle to warm every pool
// and returns the session with buffers sized for RunCycle.
func warmShmCycle(tb testing.TB, n int) (sess *Session, in, out []byte) {
	tb.Helper()
	s := startDaemon(tb, ServerConfig{Listen: []string{fmt.Sprintf("inproc://shm-cycle-%d", n)}, Functional: true})
	sess, err := s.dial(tb, Options{}).Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sess.Release() })
	if sess.Plane() != transport.PlaneShm {
		tb.Fatalf("plane = %q, want %q", sess.Plane(), transport.PlaneShm)
	}
	in = make([]byte, sess.inBytes)
	out = make([]byte, sess.outBytes)
	if err := sess.RunCycle(in, out); err != nil {
		tb.Fatal(err)
	}
	return sess, in, out
}

// BenchmarkShmPlaneCycle is one warm pipelined bulk cycle (vecadd,
// n=2^20: 8 MiB in, 4 MiB out, functional) over the file-shm plane — the
// data-path counterpart of BenchmarkRingCycle's control-path number. The
// only host copies left are the client's own StageIn/CollectOut.
func BenchmarkShmPlaneCycle(b *testing.B) {
	sess, in, out := warmShmCycle(b, 1<<20)
	b.SetBytes(sess.inBytes + sess.outBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := sess.RunCycle(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShmPlaneCycleAllocBudget: what a warm bulk cycle allocates — client,
// daemon and simulator together — is the control path's handful of objects
// and does not grow with the grid: 64 blocks or 1 024, 5 waves or 74, the
// count is the same. A BlockCtx per block or a timer per wave would show
// here as +1 024 or +69.
func TestShmPlaneCycleAllocBudget(t *testing.T) {
	allocs := func(n int) float64 {
		sess, in, out := warmShmCycle(t, n)
		return testing.AllocsPerRun(16, func() {
			if err := sess.RunCycle(in, out); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<16), allocs(1<<20)
	if small != large || large > 128 {
		t.Fatalf("allocs per warm cycle: %v at n=2^16, %v at n=2^20; want equal and <= 128", small, large)
	}
}

// TestRequestAttachFailureReleasesSession: a client that cannot map the
// segment the daemon advertised (its ShmDir is not the daemon's) fails the
// Request — and gives the session the daemon had already opened back at once,
// not when the connection drops: no session, no device reservation and no
// segment file are left behind on a connection that stays open, and the same
// connection opens a session once it looks in the right directory. A ring
// session too: the RLS it cannot send through the ring it failed to attach
// goes over the socket, the one socket verb a ring session is served.
func TestRequestAttachFailureReleasesSession(t *testing.T) {
	for _, scheme := range []string{"unix", "ring"} {
		t.Run(scheme, func(t *testing.T) {
			s := startDaemon(t, ServerConfig{Listen: []string{scheme + "://" + tempSocket(t)}, Functional: true})
			c, err := DialOptions(s.Addr(), Options{ShmDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
			for try := 0; try < 3; try++ {
				if _, err := c.Request(ref, 0); err == nil {
					t.Fatal("Request attached a segment from the wrong directory")
				}
				if got := s.node.Loads()[0].Sessions; got != 0 {
					t.Fatalf("try %d: %d sessions placed after the failed Request", try, got)
				}
				sh := s.node.Shard(0)
				if open, inUse, reserved := gvmCount(t, s.cfg.Metrics, sh.Mgr, "gvm_open_sessions"), sh.Dev.MemInUse(), sh.Dev.MemReserved(); open != 0 || inUse != 0 || reserved != 0 {
					t.Fatalf("try %d: gvm sessions=%d, device in use=%d reserved=%d after the failed Request", try, open, inUse, reserved)
				}
				// Session segments are gvmd-seg-<pid>-<n>; a ring daemon's
				// own gvmd-seg-<pid>-door<n> lives as long as it does.
				if segs, _ := filepath.Glob(filepath.Join(s.cfg.ShmDir, "gvmd-seg-*-[0-9]*")); len(segs) != 0 {
					t.Fatalf("try %d: segment files left behind: %v", try, segs)
				}
			}
			c.shmDir = s.cfg.ShmDir
			sess, err := c.Request(ref, 0)
			if err != nil {
				t.Fatalf("Request with the daemon's directory, after the failed ones: %v", err)
			}
			out := make([]byte, sess.outBytes)
			if err := sess.RunCycle(make([]byte, sess.inBytes), out); err != nil {
				t.Fatalf("cycle on the session opened after the failed ones: %v", err)
			}
			if scheme == "ring" {
				// The lone RLS is the only socket verb a ring session takes.
				for _, req := range []Request{
					{Verb: "STP", Session: sess.id},
					{Verb: "BAT", Batch: []Request{{Verb: "RCV", Session: sess.id}, {Verb: "RLS", Session: sess.id}}},
				} {
					if _, err := c.roundTrip(&req); err == nil || !strings.Contains(err.Error(), "through its ring") {
						t.Fatalf("socket %s on an attached ring session: %v, want it refused", req.Verb, err)
					}
				}
			}
			if err := sess.Release(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
