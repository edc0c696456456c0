package ipc

import (
	"testing"

	"gpuvirt/internal/workloads"
)

// ownerSwitches reads shard 0's process hand-off counter on its owner
// goroutine. The probe runs on a process of its own: one hand-off.
func ownerSwitches(tb testing.TB, s *Server) uint64 {
	tb.Helper()
	var n uint64
	if !s.submitProbe(0, func() { n = s.node.Shard(0).Env.Switches() }) {
		tb.Fatal("server closed early")
	}
	return n
}

// TestWarmCycleProcessSwitches pins what one warm cycle costs the daemon in
// process hand-offs (sim.Env.Switches), the layer a process switch is paid
// in. The counts are exact: the calendar is deterministic and the owner runs
// it dry between frames. On the engine of commit 132900c, where every sleep
// parked its process, the same three cycles read 5 / 7 / 12. What is left is
// one hand-off per wait something else can run in: the stream runner's two,
// the socket's per-frame request process (two more, which the ring host does
// without) and the restore's one.
func TestWarmCycleProcessSwitches(t *testing.T) {
	const cycles = 16
	vecadd := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}
	oneSession := func(t *testing.T, s *Server, dir string) func(int) {
		c, err := Dial(s.Addr(), dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Request(vecadd, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Release() })
		in, out := make([]byte, sess.InBytes()), make([]byte, sess.OutBytes())
		return func(int) {
			if err := sess.RunCycle(in, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) (cycle func(i int), s *Server)
		want  uint64 // hand-offs per warm cycle
	}{
		{"ring", func(t *testing.T) (func(int), *Server) {
			s, dir := startRingServer(t, 1)
			return oneSession(t, s, dir), s
		}, 2},
		{"unix", func(t *testing.T) (func(int), *Server) {
			s := startServer(t, 1, true)
			return oneSession(t, s, s.cfg.ShmDir), s
		}, 4},
		{"oversub", func(t *testing.T) (func(int), *Server) {
			return startOversub(t)
		}, 5},
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
			got := ownerSwitches(t, s) - before - 1 // the second probe's own
			if got != cycles*tc.want {
				t.Fatalf("%d process hand-offs in %d warm cycles (%.2f per cycle), want exactly %d per cycle",
					got, cycles, float64(got)/cycles, tc.want)
			}
		})
	}
}
