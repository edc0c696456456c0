package ipc

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpuvirt/internal/shm"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// TestRingCycle runs warm pipelined cycles over the ring plane and
// checks that after REQ the socket goes quiet: every verb of every
// cycle travels as a ring record, one BAT trip per cycle.
func TestRingCycle(t *testing.T) {
	srv := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	c := srv.dial(t, Options{})
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Plane() != transport.PlaneRing {
		t.Fatalf("plane = %q, want %q", sess.Plane(), transport.PlaneRing)
	}
	in := make([]byte, sess.inBytes)
	out := make([]byte, sess.outBytes)
	w.Fill(0, in)
	for i := 0; i < 3; i++ {
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if err := w.Check(0, out); err != nil {
			t.Fatalf("cycle %d check: %v", i, err)
		}
	}
	if got := sess.RingTrips(); got != 3 {
		t.Fatalf("ring trips = %d, want 3 (one BAT per cycle)", got)
	}
	if rt := c.RoundTrips(); rt != 1 {
		t.Fatalf("socket round trips = %d, want 1 (REQ only)", rt)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestRingSerialVerbs drives the four verbs as separate ring trips (the
// NoPipeline path): even unbatched, nothing but REQ touches the socket.
func TestRingSerialVerbs(t *testing.T) {
	srv := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	c := srv.dial(t, Options{NoPipeline: true})
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, sess.inBytes)
	out := make([]byte, sess.outBytes)
	w.Fill(0, in)
	if err := sess.RunCycle(in, out); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(0, out); err != nil {
		t.Fatal(err)
	}
	if got := sess.RingTrips(); got != 4 {
		t.Fatalf("ring trips = %d, want 4 (SND, STR, STP, RCV)", got)
	}
	if rt := c.RoundTrips(); rt != 1 {
		t.Fatalf("socket round trips = %d, want 1 (REQ only)", rt)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestRingFallback asks a daemon that has no ring host for the ring
// plane: there is no silent fallback to a slower plane — the REQ fails
// with one error naming the missing ring:// listener, leaves nothing
// open, and the daemon goes on serving the planes it does have.
func TestRingFallback(t *testing.T) {
	srv := startDaemon(t, ServerConfig{Functional: true})
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	// A ring:// address dials the unix socket and asks for the ring plane.
	_, sock := transport.SplitAddr(srv.Addr())
	c, err := DialOptions("ring://"+sock, Options{ShmDir: srv.dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(ref, 0); err == nil || !strings.Contains(err.Error(), "ring:// listener") {
		t.Fatalf("ring REQ against a ring-less daemon: %v, want an error naming the missing ring:// listener", err)
	}
	c2 := srv.dial(t, Options{})
	sess, err := c2.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Plane() != transport.PlaneShm {
		t.Fatalf("plane = %q, want %q", sess.Plane(), transport.PlaneShm)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestRing8ClientRace stresses eight concurrent clients over ring://
// against a two-shard daemon, then re-runs every rank's cycle serially
// and requires byte-identical output. Run under -race this also guards
// the ring host's owner-goroutine discipline.
func TestRing8ClientRace(t *testing.T) {
	const clients, cycles = 8, 4
	srv := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true, GPUs: 2})
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
				c, err := DialOptions(srv.Addr(), Options{ShmDir: srv.dir})
				if err != nil {
					return err
				}
				defer c.Close()
				sess, err := c.Request(ref, rank)
				if err != nil {
					return err
				}
				if sess.Plane() != transport.PlaneRing {
					return fmt.Errorf("rank %d plane = %q, want ring", rank, sess.Plane())
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
			t.Fatalf("rank %d: %v", rank, err)
		}
	}

	// Serial reference: one rank at a time, unbatched verbs.
	c := srv.dial(t, Options{NoPipeline: true})
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
			t.Fatalf("rank %d: concurrent ring output differs from serial reference", rank)
		}
	}
}

// ringSegments lists session segment files ("gvmd-seg-<pid>-<n>", doorbell
// excluded) currently present in the shm directory.
func ringSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "gvmd-seg-") && !strings.Contains(name, "-door") {
			segs = append(segs, name)
		}
	}
	return segs
}

// TestRingOrphanReclaim kills a client (socket close, no RLS) while its
// session is mid-cycle over the ring. The daemon's hang-up path must
// reclaim the session, its device memory, and unlink the segment file —
// and keep serving new clients. Stale segments from a daemon that died
// outright are reclaimed by the startup sweep, exercised here directly
// via shm.RemoveStale.
func TestRingOrphanReclaim(t *testing.T) {
	srv := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Timeout bounds the doomed client's in-flight ring trip: once the
	// daemon reclaims the session nobody drains its submission ring, so
	// the abandoned trip must fail instead of spinning forever.
	c, err := DialOptions(srv.Addr(), Options{ShmDir: srv.dir, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(ringSegments(t, srv.dir)); n != 1 {
		t.Fatalf("session segments = %d, want 1", n)
	}
	in := make([]byte, sess.inBytes)
	out := make([]byte, sess.outBytes)
	w.Fill(0, in)
	if err := sess.RunCycle(in, out); err != nil {
		t.Fatal(err)
	}
	// Hammer cycles from a goroutine, then yank the socket mid-stream so
	// the hang-up races records in flight between doorbell and drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := sess.RunCycle(in, out); err != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close() // no Release: simulates a killed client process
	<-done

	// The daemon stays healthy: a fresh client gets a fresh session.
	c2 := srv.dial(t, Options{})
	sess2, err := c2.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess2.RunCycle(in, out); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(0, out); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Release(); err != nil {
		t.Fatal(err)
	}

	// Startup-sweep half: segments a dead daemon left behind (session and
	// doorbell alike) match the "gvmd-seg-" prefix, name a pid no process
	// can have (above Linux's largest pid_max) and are removed.
	stale := t.TempDir()
	for _, name := range []string{"gvmd-seg-4194305-7", "gvmd-seg-4194305-door1"} {
		if err := os.WriteFile(filepath.Join(stale, name), make([]byte, 64), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	n, err := shm.RemoveStale(stale, "gvmd-seg-", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("RemoveStale removed %d, want 2", n)
	}
}

// sweepEnv, set to a directory, makes the test binary a second daemon
// starting on it: TestMain runs gvmd's start-up sweep there, prints how many
// files it removed, and exits. The sweep spares its own pid's files only in
// another process, so it cannot stand in for a second daemon from this one.
const sweepEnv = "GVM_IPC_TEST_SWEEP_DIR"

func TestMain(m *testing.M) {
	if dir := os.Getenv(sweepEnv); dir != "" {
		n, err := shm.RemoveStale(dir, transport.SegPrefix, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(n)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepFromAnotherProcess runs the start-up sweep of dir in a child process
// and returns how many files it removed.
func sweepFromAnotherProcess(t *testing.T, dir string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), sweepEnv+"="+dir)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("start-up sweep in a child process: %v", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(out)))
	if err != nil {
		t.Fatalf("start-up sweep in a child process printed %q", out)
	}
	return n
}

// TestTwoServersOneShmDir: two daemons on one -shm directory (README's
// two-node example leaves both on /dev/shm) keep out of each other's files.
// A second daemon's start-up sweep, run in a process of its own, removes a
// dead daemon's file but spares the live first one's doorbell and segment,
// so a ring REQ to the first still attaches afterwards; and every session
// segment and doorbell of two servers gets a name of its own.
func TestTwoServersOneShmDir(t *testing.T) {
	dir := t.TempDir()
	start := func(sock string) *daemon {
		return startDaemon(t, ServerConfig{Listen: []string{"ring://" + filepath.Join(dir, sock)}, ShmDir: dir, Functional: true})
	}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(srv *daemon) {
		t.Helper()
		c := srv.dial(t, Options{})
		sess, err := c.Request(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		in, out := make([]byte, sess.inBytes), make([]byte, sess.outBytes)
		w.Fill(0, in)
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatal(err)
		}
		if err := w.Check(0, out); err != nil {
			t.Fatal(err)
		}
	}
	a := start("a.sock")
	cycle(a)
	// A pid above Linux's largest pid_max, 2^22: a dead daemon's segment.
	dead := filepath.Join(dir, transport.SegPrefix+"4194305-9")
	if err := os.WriteFile(dead, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if n := sweepFromAnotherProcess(t, dir); n != 1 {
		t.Fatalf("start-up sweep beside a live daemon removed %d files, want the dead one's 1", n)
	}
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Fatalf("start-up sweep left %s: %v", dead, err)
	}
	b := start("b.sock")
	cycle(a)
	cycle(b)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var doors, segs int
	for _, e := range entries {
		switch name := e.Name(); {
		case !strings.HasPrefix(name, transport.SegPrefix):
		case strings.Contains(name, "-door"):
			doors++
		default:
			segs++
		}
	}
	if doors != 2 || segs != 3 {
		t.Fatalf("%d doorbells and %d session segments in %s, want 2 and 3", doors, segs, dir)
	}
}

// TestRingCycleZeroAllocZeroSyscall is the ring plane's acceptance test: a
// warm pipelined cycle allocates nothing and crosses the kernel zero times.
// The only syscalls a ring cycle can make are the futexes behind the
// doorbells, and whether a side ever parks on one is the scheduler's
// choice, not the code's; what the code decides is that a side which is
// awake costs its peer nothing. So the syscall half drives both ends of a
// session ring itself, in lockstep, and holds the futex counters to
// exactly zero: a push to a peer that has not advertised sleeping pays no
// wake, a pop of a ready slot no wait.
func TestRingCycleZeroAllocZeroSyscall(t *testing.T) {
	// First, while this process runs no daemon: the counters are
	// process-wide, and an idle shard parks on its doorbell in slices.
	cfg := shm.DefaultRingConfig()
	seg := shm.NewMemory(shm.RingSegmentSize(cfg, 0, 0), true)
	host, err := shm.InitSessionRing(seg, cfg, 0, 0, "door", 0)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := shm.AttachSessionRing(seg) // the client's view
	if err != nil {
		t.Fatal(err)
	}
	var shardDoor atomic.Uint32 // in a daemon, a word of the doorbell segment
	rec := make([]byte, 154)    // a warm cycle's request + response frames
	waits0, wakes0 := shm.FutexStats()
	for i := 0; i < 100; i++ {
		ok := peer.Sub.Push(rec)
		shm.DoorRing(&shardDoor) // the shard is sweeping, not armed
		_, got := host.Sub.Peek()
		host.Sub.Release()
		ok = ok && got && host.Cpl.Push(rec)
		shm.DoorRing(host.ClientDoor()) // the client is spinning, not armed
		_, got = peer.Cpl.Peek()
		peer.Cpl.Release()
		if !ok || !got {
			t.Fatalf("cycle %d: the ring dropped a record", i)
		}
	}
	if waits, wakes := shm.FutexStats(); waits != waits0 || wakes != wakes0 {
		t.Fatalf("100 cycles between two awake sides paid %d futex waits and %d wakes, want 0 and 0", waits-waits0, wakes-wakes0)
	}

	srv := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	c := srv.dial(t, Options{})
	// The copy workload has no kernels: the cycle is pure control plane
	// plus the two staging copies, so any allocation is the ring's own.
	ref := workloads.Ref{Name: "copy", Params: map[string]int{"n": 4096}}
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	in := make([]byte, sess.inBytes)
	out := make([]byte, sess.outBytes)
	for i := range in {
		in[i] = byte(i)
	}
	for i := 0; i < 8; i++ { // warm: staging bound, intern table hot
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatal(err)
		}
	}

	if allocs := testing.AllocsPerRun(64, func() {
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm ring cycle allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkRingCycle is the headline number for the ring control plane:
// one warm pipelined SND+STR+STP+RCV cycle per op, single client.
// Compare against BenchmarkDaemonThroughput/unix/c1-pipelined — the
// same cycle over a unix socket.
func BenchmarkRingCycle(b *testing.B) {
	srv := startDaemon(b, ServerConfig{Listen: []string{"ring://" + tempSocket(b)}, Functional: true})
	c := srv.dial(b, Options{})
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Release()
	in := make([]byte, sess.inBytes)
	out := make([]byte, sess.outBytes)
	if err := sess.RunCycle(in, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := sess.RunCycle(in, out); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRingRLSLeavesNothingHeld: sessions opened over one connection and
// released through their rings leave nothing behind while that connection
// stays open — the session table is the one record of who owns what, and a
// ring RLS takes the session out of it. What the audit may name is the open
// connection's own two read buffers, its client end's and the daemon's.
func TestRingRLSLeavesNothingHeld(t *testing.T) {
	s := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	c := s.dial(t, Options{})
	for i := 0; i < 3; i++ {
		sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Plane() != transport.PlaneRing {
			t.Fatalf("session %d rides the %s plane, want ring", i, sess.Plane())
		}
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
	held, _ := s.audit()
	for end := time.Now().Add(5 * time.Second); !slices.Equal(held, []string{"pool-buffers=2"}) && time.Now().Before(end); held, _ = s.audit() {
		time.Sleep(5 * time.Millisecond)
	}
	if !slices.Equal(held, []string{"pool-buffers=2"}) {
		t.Errorf("with the connection still open, the daemon holds %v, want only its two read buffers", held)
	}
}
