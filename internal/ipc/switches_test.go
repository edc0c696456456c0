package ipc

import (
	"testing"

	"gpuvirt/internal/workloads"
)

// oneSession opens one vecadd session (n = 1024) on s over a connection of
// its own and returns its cycle.
func oneSession(t *testing.T, s *daemon) func(int) {
	t.Helper()
	c := s.dial(t, Options{})
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Release() })
	in, out := make([]byte, sess.inBytes), make([]byte, sess.outBytes)
	return func(int) {
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatal(err)
		}
	}
}

// ownerSwitches reads shard 0's process hand-off counter in a turn of its
// own as the shard's owner; the probe is no process and costs no hand-off.
func ownerSwitches(tb testing.TB, s *daemon) uint64 {
	tb.Helper()
	var n uint64
	if !s.submitProbe(0, func() { n = s.node.Shard(0).Env.Switches() }) {
		tb.Fatal("server closed early")
	}
	return n
}

// TestWarmCycleProcessSwitches pins what one warm cycle costs the daemon in
// process hand-offs (sim.Env.Switches), the layer a process switch is paid
// in. The counts are exact: the calendar is deterministic and every turn runs
// it dry. On the engine of commit 132900c, where every sleep parked its
// process, the same three cycles read 5 / 7 / 12; with a per-frame request
// process on the socket (commit e9a3620) 2 / 4 / 5. What is left is one
// hand-off per wait something else can run in: the stream runner's two and
// the restore's one — a socket frame starts its run as the ring sweep does,
// with no process of its own.
func TestWarmCycleProcessSwitches(t *testing.T) {
	const cycles = 16
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (cycle func(i int), s *daemon)
		want  uint64 // hand-offs per warm cycle
	}{
		{"ring", func(t *testing.T) (func(int), *daemon) {
			s := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
			return oneSession(t, s), s
		}, 2},
		{"unix", func(t *testing.T) (func(int), *daemon) {
			s := startDaemon(t, ServerConfig{Functional: true})
			return oneSession(t, s), s
		}, 2},
		{"oversub", func(t *testing.T) (func(int), *daemon) {
			s := startDaemon(t, oversub())
			return oversubCycles(t, s), s
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycle, s := tc.start(t)
			for i := 0; i < oversubSessions; i++ {
				cycle(i) // warm: staging bound, every oversub session evicted once
			}
			before := ownerSwitches(t, s)
			for i := 0; i < cycles; i++ {
				cycle(i)
			}
			got := ownerSwitches(t, s) - before
			if got != cycles*tc.want {
				t.Fatalf("%d process hand-offs in %d warm cycles (%.2f per cycle), want exactly %d per cycle",
					got, cycles, float64(got)/cycles, tc.want)
			}
		})
	}
}

// daemonCycleAllocs is what a warm cycle allocates in the daemon whatever
// carries it, and whether or not its session was evicted: nothing. A kernel
// launch reuses its launch record, the record's completion event with its
// waiter backing, and the kernel's block context; a restore puts the
// session's buffers back at the addresses its kernels and flush ops were
// built against, into the session's one snapshot, on a reused process.
// Go's heap goal never drops below 4 MiB, so any per-cycle garbage at all
// holds about 5 MB of a daemon's RSS.
const daemonCycleAllocs = 0

// TestSocketCycleDaemonAllocs is TestWarmCycleProcessSwitches' allocation
// twin: a warm BAT cycle allocates in the daemon exactly what a ring cycle
// does — what the engine allocates — and nothing for being carried by a
// socket, unix:// with the shm plane or tcp:// with the inline one: no done
// channel, no closure, no request process, no Batch backing. Client and
// daemon share the test's heap; the client side of a warm cycle allocates
// nothing on any carrier, so the count is the daemon's. The oversub row
// holds the evict+restore cycle (serial executor) to the same nothing.
func TestSocketCycleDaemonAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (cycle func(i int))
		want  float64
	}{
		{"ring", func(t *testing.T) func(int) {
			s := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
			return oneSession(t, s)
		}, daemonCycleAllocs},
		{"unix", func(t *testing.T) func(int) {
			s := startDaemon(t, ServerConfig{Functional: true})
			return oneSession(t, s)
		}, daemonCycleAllocs},
		{"tcp", func(t *testing.T) func(int) {
			s := startDaemon(t, ServerConfig{Listen: []string{"tcp://127.0.0.1:0"}, Functional: true})
			return oneSession(t, s)
		}, daemonCycleAllocs},
		{"oversub", func(t *testing.T) func(int) {
			return oversubCycles(t, startDaemon(t, oversub()))
		}, daemonCycleAllocs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cycle := tc.start(t)
			i := 0
			got := testing.AllocsPerRun(64, func() { cycle(i); i++ })
			if got != tc.want {
				t.Fatalf("%v allocations per warm cycle, want exactly %v", got, tc.want)
			}
		})
	}
}
