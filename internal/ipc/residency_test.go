package ipc

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// tiny is a functional daemon whose single GPU fits about one vecadd-4096
// session (48 KiB of arenas on a 64 KiB card) at the given overcommit
// factor.
func tiny(overcommit float64) ServerConfig {
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10
	return ServerConfig{Functional: true, Arch: arch, Overcommit: overcommit}
}

// TestStagedInputSurvivesEviction: on every data plane, input a session
// staged with a lone SND survives its arena leaving the card — a second
// session's REQ evicts it — and the verbs after it restore the arena and
// compute from that input, byte-identical to the host's sum.
func TestStagedInputSurvivesEviction(t *testing.T) {
	const n = 4096
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	for _, plane := range []string{transport.PlaneShm, transport.PlaneInline, transport.PlaneRing} {
		t.Run(plane, func(t *testing.T) {
			cfg := tiny(2)
			if plane == transport.PlaneRing {
				cfg.Listen = []string{"ring://" + tempSocket(t)}
			}
			srv := startDaemon(t, cfg)
			c := srv.dial(t, Options{Plane: plane})
			sess, err := c.Request(ref, 0)
			if err != nil {
				t.Fatal(err)
			}
			in, want := vecaddInput(n, 3)
			if err := sess.SendInput(in); err != nil {
				t.Fatal(err)
			}
			other, err := c.Request(ref, 1)
			if err != nil {
				t.Fatal(err)
			}
			mgr := srv.node.Shard(0).Mgr
			if got := gvmCount(t, srv.cfg.Metrics, mgr, "gvm_evictions_total"); got != 1 {
				t.Fatalf("evictions = %d after the second REQ, want 1", got)
			}
			if err := sess.Start(); err != nil {
				t.Fatal(err)
			}
			if err := sess.Wait(); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, sess.outBytes)
			if err := sess.Receive(out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Fatal("staged input lost across the eviction")
			}
			if got := gvmCount(t, srv.cfg.Metrics, mgr, "gvm_restores_total"); got != 1 {
				t.Fatalf("restores = %d, want 1", got)
			}
			for _, s := range []*Session{sess, other} {
				if err := s.Release(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDaemonEvictionDuringPipelinedBAT packs two full-card sessions onto
// one GPU at overcommit 4 and alternates pipelined cycles between them:
// every BAT's first verb lands on an evicted session and the manager
// must restore it mid-batch, transparently, with byte-identical results.
func TestDaemonEvictionDuringPipelinedBAT(t *testing.T) {
	srv := startDaemon(t, tiny(4))
	c := srv.dial(t, Options{})
	const n = 4096
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	s1, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Request(ref, 0)
	if err != nil {
		t.Fatalf("REQ within the overcommit quota rejected: %v", err)
	}
	mgr := srv.node.Shard(0).Mgr
	if gvmCount(t, srv.cfg.Metrics, mgr, "gvm_evictions_total") == 0 {
		t.Fatal("second session became resident without evicting the first")
	}
	mk := func(seed int) ([]float32, []byte) {
		in := make([]float32, 2*n)
		for i := 0; i < n; i++ {
			in[i] = float32((i + seed) % 127)
			in[n+i] = float32((i*3 + seed) % 131)
		}
		return in, cuda.HostFloat32Bytes(in)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for si, sess := range []*Session{s1, s2} {
			in, inB := mk(cycle*7 + si)
			out := make([]byte, n*4)
			if err := sess.RunCycle(inB, out); err != nil {
				t.Fatalf("cycle %d session %d: %v", cycle, si, err)
			}
			res := cuda.Float32s(byteMem(out), 0, n)
			for i := 0; i < n; i++ {
				if res[i] != in[i]+in[n+i] {
					t.Fatalf("cycle %d session %d: out[%d] = %g, want %g",
						cycle, si, i, res[i], in[i]+in[n+i])
				}
			}
		}
	}
	// Each cycle's BAT hit a swapped-out session: restores accumulated.
	if gvmCount(t, srv.cfg.Metrics, mgr, "gvm_restores_total") < 3 {
		t.Fatalf("restores = %d, want >= 3 (one per ping-pong)", gvmCount(t, srv.cfg.Metrics, mgr, "gvm_restores_total"))
	}
	if err := s1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonPriorityOnREQ sends the optional Priority REQ field over the
// binary wire: the session's cycle is counted under the weight class its
// priority derives (max(1, Priority+1) = 4).
func TestDaemonPriorityOnREQ(t *testing.T) {
	srv := startDaemon(t, ServerConfig{Functional: true})
	c := srv.dial(t, Options{})
	const n = 2048
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	sess, err := c.RequestOptions(ref, 0, SessionOptions{Priority: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunCycle(make([]byte, 8*n), make([]byte, 4*n)); err != nil {
		t.Fatal(err)
	}
	if got := gvmCount(t, srv.cfg.Metrics, srv.node.Shard(0).Mgr, "gpusim_sched_launches_total", metrics.L("class", "4")); got != 1 {
		t.Errorf("class-4 launches = %d, want the priority-3 session's 1", got)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// The `oversub` workload (BENCHMARK.json) in-process: eight vecadd sessions
// of 48 KiB of arenas each on a 100 KiB card that holds two, so driven
// round-robin every cycle lands on an evicted session and pays one
// eviction and one restore.
const (
	oversubSessions  = 8
	oversubN         = 4096
	oversubFootprint = 3 * 4 * oversubN // two input vectors and the sum
)

// oversub is the oversubscribed daemon. Its kernels run serially, as the
// benchmark's one-CPU daemon runs them, so what a cycle allocates does not
// depend on the host's core count.
func oversub() ServerConfig {
	arch := fermi.TeslaC2070()
	arch.MemBytes = 100 << 10
	return ServerConfig{Functional: true, Arch: arch, Overcommit: 4, ExecWorkers: 1}
}

// oversubCycles opens and warms the sessions on s and returns the function
// that runs cycle i: on session i mod 8, output verified.
func oversubCycles(tb testing.TB, s *daemon) func(i int) {
	tb.Helper()
	c := s.dial(tb, Options{})
	var (
		sess      [oversubSessions]*Session
		ins, want [oversubSessions][]byte
	)
	out := make([]byte, 4*oversubN)
	cycle := func(i int) {
		k := i % oversubSessions
		if err := sess[k].RunCycle(ins[k], out); err != nil {
			tb.Fatalf("cycle %d: %v", i, err)
		}
		if !bytes.Equal(out, want[k]) {
			tb.Fatalf("cycle %d: session %d read back wrong results", i, k)
		}
	}
	for k := range sess {
		var err error
		if sess[k], err = c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": oversubN}}, k); err != nil {
			tb.Fatal(err)
		}
		ins[k], want[k] = vecaddInput(oversubN, k)
		cycle(k)
	}
	return cycle
}

// BenchmarkOversubCycle is one warm cycle on an evicted session: a verb
// round trip plus one eviction and one restore of a 48 KiB arena. A swap
// moves ownership of the arena's backing store and a restore puts the
// buffers back at the addresses the session's kernels were built against,
// so B/op and allocs/op read 0 (TestSocketCycleDaemonAllocs holds them
// there).
func BenchmarkOversubCycle(b *testing.B) {
	cycle := oversubCycles(b, startDaemon(b, oversub()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}

// TestSwapCycleAllocatesNoArena fails tier-1, not a benchmark run, when a
// staging copy comes back to the swap path: the whole process — client,
// daemon, simulator — allocates under a quarter of the session footprint
// per evict+restore cycle.
func TestSwapCycleAllocatesNoArena(t *testing.T) {
	const cycles = 64
	s := startDaemon(t, oversub())
	cycle := oversubCycles(t, s)
	mgr := s.node.Shard(0).Mgr
	evictions := gvmCount(t, s.cfg.Metrics, mgr, "gvm_evictions_total")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&after)
	if got := gvmCount(t, s.cfg.Metrics, mgr, "gvm_evictions_total") - evictions; got < cycles*9/10 {
		t.Fatalf("%d evictions in %d cycles: the card was not oversubscribed", got, cycles)
	}
	if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle >= oversubFootprint/4 {
		t.Fatalf("%d heap bytes allocated per evict+restore cycle, want under a quarter of the %d-byte arena", perCycle, oversubFootprint)
	}
}

// gvmCount reads m's sample of a gvm family, family{gpu="<m's GPU>",
// labels}, from reg, the registry the daemon was built with. A sample reg
// does not hold fails the test and reads -1: a misspelt name never reads as
// a zero.
func gvmCount(t testing.TB, reg *metrics.Registry, m *gvm.Manager, family string, labels ...metrics.Label) int {
	t.Helper()
	n, ok := reg.Value(family, append(labels, metrics.L("gpu", strconv.Itoa(m.GPUIndex())))...)
	if !ok {
		t.Errorf("the registry holds no sample %s%v for gpu %d", family, labels, m.GPUIndex())
		return -1
	}
	return int(n)
}
