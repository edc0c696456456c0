package ipc

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// smallParams sizes every registered workload for a functional cycle that
// takes milliseconds.
var smallParams = map[string]map[string]int{
	"vecadd":         {"n": 1000},
	"copy":           {"n": 1000},
	"ep":             {"m": 10, "grid": 2},
	"mm":             {"n": 32},
	"mg":             {"n": 8, "levels": 2, "nit": 1},
	"blackscholes":   {"n": 1000, "nit": 2, "grid": 4},
	"cg":             {"na": 100, "nonzer": 3, "nit": 2, "grid": 2},
	"electrostatics": {"atoms": 50, "nit": 2, "grid": 4, "gridx": 16, "gridy": 8},
	"is":             {"n": 1024, "buckets": 64, "nit": 2, "grid": 4},
	"ft":             {"edge": 8, "nit": 2, "grid": 4},
}

// stagedCycles opens ref on c, stages its rank-0 input and runs cycles
// cycles on the one session, holding every output to the workload's
// check; it returns the last output.
func stagedCycles(t *testing.T, c *Client, ref workloads.Ref, cycles int) []byte {
	t.Helper()
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatalf("%s: %v", ref.Name, err)
	}
	defer sess.Release()
	in, out := make([]byte, sess.inBytes), make([]byte, sess.outBytes)
	if w.Fill != nil {
		w.Fill(0, in)
	}
	for cycle := 1; cycle <= cycles; cycle++ {
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatalf("%s cycle %d: %v", ref.Name, cycle, err)
		}
		if w.Check != nil {
			if err := w.Check(0, out); err != nil {
				t.Fatalf("%s cycle %d: %v", ref.Name, cycle, err)
			}
		}
	}
	return out
}

// TestEveryWorkloadRepeatsThroughTheDaemon: a session's device memory
// persists from cycle to cycle, and its output and (unless a kernel writes
// it) input buffers are its staging, so every registered workload must
// return the right answer on its third cycle as on its first, on a mapped
// plane and on the inline one. A kernel that accumulates into its output
// returns N times the answer on the N-th cycle here.
func TestEveryWorkloadRepeatsThroughTheDaemon(t *testing.T) {
	s := startDaemon(t, ServerConfig{Functional: true})
	for _, plane := range []string{transport.PlaneShm, transport.PlaneInline} {
		t.Run(plane, func(t *testing.T) {
			c := s.dial(t, Options{Plane: plane})
			for _, name := range workloads.Names() {
				stagedCycles(t, c, workloads.Ref{Name: name, Params: smallParams[name]}, 3)
			}
		})
	}
}

// TestStagingBacksEveryPlane: CG at its default size stages 234 220 input
// bytes, not a multiple of the device's 256-byte allocation granule, and
// its output follows its input in a mapped segment. Its staged output
// buffer lives on the staging region of each plane as it is, and the
// cycle's answer is right on all three.
func TestStagingBacksEveryPlane(t *testing.T) {
	ref := workloads.Ref{Name: "cg"}
	for _, tc := range []struct{ scheme, plane string }{
		{"unix", transport.PlaneShm},
		{"unix", transport.PlaneInline},
		{"ring", transport.PlaneRing},
	} {
		t.Run(tc.plane, func(t *testing.T) {
			s := startDaemon(t, ServerConfig{Listen: []string{tc.scheme + "://" + tempSocket(t)}, Functional: true})
			c := s.dial(t, Options{Plane: tc.plane})
			stagedCycles(t, c, ref, 2)
		})
	}
}

// TestRerunWithoutRestageIsIdentical: a cycle that stages nothing new
// computes from the input staged before it. For a workload whose kernels
// rewrite their input in place (CG's x, FT's FFT) that holds only because
// its device input is private and H2D refills it from staging; for one
// whose device input is the staging itself (vecadd), because nothing
// writes it.
func TestRerunWithoutRestageIsIdentical(t *testing.T) {
	s := startDaemon(t, ServerConfig{Functional: true})
	c := s.dial(t, Options{})
	for _, name := range []string{"cg", "ft", "vecadd"} {
		ref := workloads.Ref{Name: name, Params: smallParams[name]}
		w, err := workloads.FromRef(ref)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.Request(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		in, first, again := make([]byte, sess.inBytes), make([]byte, sess.outBytes), make([]byte, sess.outBytes)
		w.Fill(0, in)
		if err := sess.RunCycle(in, first); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sess.RunCycle(nil, again); err != nil {
			t.Fatalf("%s re-run: %v", name, err)
		}
		if !bytes.Equal(first, again) {
			t.Errorf("%s: a re-run on the staged input returned other bytes than the run that staged it", name)
		}
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShmSessionAllocatesNoDeviceBacking: over the shm plane a vecadd
// session's device input and output are the mapped segment's regions, so
// its REQ and first cycle allocate no device memory on the Go heap — where
// each arena was once a heap slice (8 + 4 MiB, plus huge-page slack).
func TestShmSessionAllocatesNoDeviceBacking(t *testing.T) {
	const n = 1 << 20
	s := startDaemon(t, ServerConfig{Functional: true})
	c := s.dial(t, Options{})
	in, want := vecaddInput(n, 3)
	out := make([]byte, len(want))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RunCycle(in, out); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("REQ and the first cycle allocated %d KiB of Go heap, want < 1 MiB: a device arena is heap memory again", grown>>10)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("wrong vecadd result")
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestKernelPanicFailsOnlyItsCycle: IS indexes its histogram by the keys a
// client staged, so keys out of range panic its kernel body. That fails the
// cycle with an error naming the kernel — not retryable, since no shard
// could run those keys — and nothing else: the shard stays healthy, the
// next session on it computes, and the daemon shuts down. Unpipelined, the
// STP is a trip of its own that may arrive after the flush has ended; it
// gets the kernel's error all the same.
func TestKernelPanicFailsOnlyItsCycle(t *testing.T) {
	for _, noPipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("no-pipeline=%v", noPipeline), func(t *testing.T) {
			s := startDaemon(t, ServerConfig{Functional: true})
			c := s.dial(t, Options{NoPipeline: noPipeline})
			sess, err := c.Request(workloads.Ref{Name: "is"}, 0)
			if err != nil {
				t.Fatal(err)
			}
			bad := bytes.Repeat([]byte{0x7f}, int(sess.inBytes))
			done := make(chan error, 1)
			go func() { done <- sess.RunCycle(bad, make([]byte, sess.outBytes)) }()
			select {
			case err := <-done:
				switch {
				case err == nil:
					t.Fatal("a cycle over out-of-range keys succeeded")
				case !strings.Contains(err.Error(), `kernel "is-histogram"`) || gvm.IsRetryable(err.Error()):
					t.Fatalf("cycle error %q, want a non-retryable one naming the kernel", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("a cycle whose kernel panicked never answered")
			}
			if h := s.node.Health(0); h != node.Healthy {
				t.Fatalf("shard health %v after a kernel's own failure, want healthy", h)
			}
			if err := sess.Release(); err != nil {
				t.Fatal(err)
			}
			out := vecaddCycle(t, c, 1024, 0)
			if res := out[4*7 : 4*8]; !bytes.Equal(res, []byte{0, 0, 0xf0, 0x40}) { // 7 + 0.5
				t.Fatalf("vecadd after the failed cycle: out[7] bytes %v", res)
			}
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Server.Close did not return")
			}
		})
	}
}
