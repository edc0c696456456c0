package ipc

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// startTinyServer boots a functional daemon whose single GPU fits about
// one vecadd-4096 session (48 KiB of arenas on a 64 KiB card) at the
// given overcommit factor.
func startTinyServer(t *testing.T, overcommit float64, ring bool) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10
	cfg := ServerConfig{
		ShmDir:     dir,
		Functional: true,
		Arch:       arch,
		Overcommit: overcommit,
	}
	scheme := "unix://"
	if ring {
		scheme = "ring://"
	}
	cfg.Listen = []string{scheme + filepath.Join(dir, "gvmd.sock")}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, dir
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
			srv, dir := startTinyServer(t, 2, plane == transport.PlaneRing)
			c, err := DialOptions(srv.Addr(), Options{ShmDir: dir, Plane: plane})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
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
	srv, dir := startTinyServer(t, 4.0, false)
	c, err := DialOptions(srv.Addr(), Options{ShmDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	if open := placedSessions(srv); open != 0 {
		t.Fatalf("%d placed sessions leaked", open)
	}
	dev := srv.node.Shard(0).Dev
	if dev.MemInUse() != 0 || dev.MemReserved() != 0 {
		t.Fatalf("leak: resident=%d reserved=%d", dev.MemInUse(), dev.MemReserved())
	}
}

// TestDaemonPriorityOnREQ sends the optional Priority REQ field over the
// binary wire: the session's cycle is counted under the weight class its
// priority derives (max(1, Priority+1) = 4).
func TestDaemonPriorityOnREQ(t *testing.T) {
	srv := startServer(t, 1, true)
	c, err := DialOptions(srv.Addr(), Options{ShmDir: srv.cfg.ShmDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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

// startOversub boots the oversubscribed daemon behind a unix socket, opens
// and warms the sessions, and returns the function that runs cycle i —
// on session i mod 8, output verified — with the daemon. Its kernels run
// serially, as the benchmark's one-CPU daemon runs them, so what a cycle
// allocates does not depend on the host's core count.
func startOversub(tb testing.TB) (cycle func(i int), s *Server) {
	tb.Helper()
	dir := tb.TempDir()
	arch := fermi.TeslaC2070()
	arch.MemBytes = 100 << 10
	s = startServerOn(tb, ServerConfig{
		Listen:      []string{"unix://" + filepath.Join(dir, "gvmd.sock")},
		ShmDir:      dir,
		Functional:  true,
		Arch:        arch,
		Overcommit:  4,
		ExecWorkers: 1,
	})
	c, err := DialOptions(s.Addr(), Options{ShmDir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	var (
		sess      [oversubSessions]*Session
		ins, want [oversubSessions][]byte
	)
	out := make([]byte, 4*oversubN)
	cycle = func(i int) {
		k := i % oversubSessions
		if err := sess[k].RunCycle(ins[k], out); err != nil {
			tb.Fatalf("cycle %d: %v", i, err)
		}
		if !bytes.Equal(out, want[k]) {
			tb.Fatalf("cycle %d: session %d read back wrong results", i, k)
		}
	}
	for k := range sess {
		if sess[k], err = c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": oversubN}}, k); err != nil {
			tb.Fatal(err)
		}
		ins[k], want[k] = vecaddInput(oversubN, k)
		cycle(k)
	}
	return cycle, s
}

// BenchmarkOversubCycle is one warm cycle on an evicted session: a verb
// round trip plus one eviction and one restore of a 48 KiB arena. A swap
// moves ownership of the arena's backing store and a restore puts the
// buffers back at the addresses the session's kernels were built against,
// so B/op and allocs/op read 0 (TestSocketCycleDaemonAllocs holds them
// there).
func BenchmarkOversubCycle(b *testing.B) {
	cycle, _ := startOversub(b)
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
	cycle, s := startOversub(t)
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
// labels}, from a scrape of reg, the registry the daemon was built with. A
// family reg does not hold fails the test and reads -1: a misspelt name
// never reads as a zero.
func gvmCount(t testing.TB, reg *metrics.Registry, m *gvm.Manager, family string, labels ...metrics.Label) int {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Error(err)
		return -1
	}
	labels = append(labels, metrics.L("gpu", strconv.Itoa(m.GPUIndex())))
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	kv := make([]string, len(labels))
	for i, l := range labels {
		kv[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	key := family + "{" + strings.Join(kv, ",") + "} "
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Error(err)
				return -1
			}
			return n
		}
	}
	t.Errorf("the registry holds no sample %s", strings.TrimSpace(key))
	return -1
}

// placedSessions is how many sessions s's placement layer holds. A
// dispatcher session keeps its placement until it is retired, so 0 means
// no dispatcher session is left either.
func placedSessions(s *Server) (n int64) {
	for _, l := range s.node.Loads() {
		n += l.Sessions
	}
	return n
}
