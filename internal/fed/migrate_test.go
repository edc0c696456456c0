package fed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// startMidCycle opens a vecadd session of n elements through the router,
// stages rank 0's input and starts its cycle, and returns the session and
// the node it landed on.
func startMidCycle(t *testing.T, r *Router, n int, nodes ...*testNode) (*ipc.Session, int) {
	t.Helper()
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ipc.DialOptions(r.Addr(), ipc.Options{NoPipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, w.Spec(0).InBytes)
	w.Fill(0, in)
	if err := sess.SendInput(in); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		if sessionsOn(node) == 1 {
			return sess, i
		}
	}
	t.Fatal("no node owns the session after STR")
	return nil, 0
}

// finishCycle completes a started cycle and holds its output to want.
func finishCycle(t *testing.T, sess *ipc.Session, want []byte) {
	t.Helper()
	if err := sess.Wait(); err != nil {
		t.Fatalf("STP: %v", err)
	}
	out := make([]byte, len(want))
	if err := sess.Receive(out); err != nil {
		t.Fatalf("RCV: %v", err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("RCV bytes differ from the direct single-node reference")
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossNodeMigrationUnderTheFrameCeiling drains the node under a
// 60 MiB-footprint vecadd. Its blob — staged in and out, each behind a
// presence byte and a uvarint length — is ≈ 60 MiB, inside a 64 MiB frame,
// so the session migrates: fed_migrated_bytes_total rises by exactly the
// blob, no node is marked dead, and RCV is byte-identical.
func TestCrossNodeMigrationUnderTheFrameCeiling(t *testing.T) {
	const n = 5 << 20
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	want := directReference(t, ref, 1)
	f := startFed(t, 20*time.Millisecond, ipc.ServerConfig{}, ipc.ServerConfig{})
	a, b, r := f.nodes[0], f.nodes[1], f.r
	sess, idx := startMidCycle(t, r, n, a, b)
	src, dst := a, b
	if idx == 1 {
		src, dst = b, a
	}

	src.DrainAll()
	// The target counts the session as soon as ADP lands; the router counts
	// the move only once ADP's answer is back, so wait for both.
	moved := func() bool {
		return sessionsOn(dst) == 1 && sessionsOn(src) == 0 &&
			scrape(t, r.cfg.Metrics)["fed_migrated_bytes_total"] != 0
	}
	for deadline := 1000; !moved(); deadline-- {
		if deadline == 0 {
			t.Fatalf("session never left the draining node: src %d open, dst %d open",
				sessionsOn(src), sessionsOn(dst))
		}
		time.Sleep(10 * time.Millisecond)
	}

	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	sp := w.Spec(0)
	blob := int64(2) // the state byte and the scratch count
	for _, size := range []int64{sp.InBytes, sp.OutBytes} {
		blob += 1 + int64(len(binary.AppendUvarint(nil, uint64(size)))) + size
	}
	samples := scrape(t, r.cfg.Metrics)
	if got := samples["fed_migrated_bytes_total"]; got != blob {
		t.Errorf("fed_migrated_bytes_total = %d, want the %d-byte blob", got, blob)
	}
	if got := samples[`fed_nodes{state="dead"}`]; got != 0 {
		t.Errorf(`fed_nodes{state="dead"} = %d, want 0: the session was re-created, not migrated`, got)
	}
	finishCycle(t, sess, want[0])
}

// TestOversizedMIGServesInPlace: a session whose blob no frame can carry —
// a 72 MiB-footprint vecadd, ≈ 72 MiB of blob — stays where it is. Raw,
// MIG answers ERR naming both sizes on a connection that stays up, and the
// cycle MIG interrupted completes on the source, byte for byte. Through
// gvmfed, draining the node leaves it draining, not dead, and the session
// served on it.
func TestOversizedMIGServesInPlace(t *testing.T) {
	const n = 6 << 20
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	want := directReference(t, ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("raw", func(t *testing.T) {
		node := startFed(t, 0, ipc.ServerConfig{}).nodes[0]
		conn, _, err := transport.Dial(node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { conn.Close(); conn.Release() }()
		trip := func(req transport.Request) *transport.Response {
			t.Helper()
			if err := conn.WriteRequest(&req); err != nil {
				t.Fatalf("%s: %v", req.Verb, err)
			}
			resp, err := conn.ReadResponse()
			if err != nil {
				t.Fatalf("%s: the daemon dropped the connection: %v", req.Verb, err)
			}
			return resp
		}
		must := func(req transport.Request) *transport.Response {
			t.Helper()
			resp := trip(req)
			if resp.Status != "ACK" {
				t.Fatalf("%s: %s", req.Verb, resp.Err)
			}
			return resp
		}
		opened := must(transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline})
		id := opened.Session
		in := make([]byte, opened.InBytes)
		w.Fill(0, in)
		must(transport.Request{Verb: "SND", Session: id, Data: in})
		must(transport.Request{Verb: "STR", Session: id})
		mig := trip(transport.Request{Verb: "MIG", Session: id})
		if mig.Status != "ERR" || !strings.Contains(mig.Err, "-byte blob does not fit a 67108864-byte frame") {
			t.Fatalf("MIG of an oversized session: %s %q, want ERR naming both sizes", mig.Status, mig.Err)
		}
		must(transport.Request{Verb: "STP", Session: id})
		if got := must(transport.Request{Verb: "RCV", Session: id}).Data; !bytes.Equal(got, want[0]) {
			t.Fatal("RCV after a refused MIG differs from the direct single-node reference")
		}
		must(transport.Request{Verb: "RLS", Session: id})
	})

	t.Run("gvmfed", func(t *testing.T) {
		f := startFed(t, 20*time.Millisecond, ipc.ServerConfig{}, ipc.ServerConfig{})
		a, b, r := f.nodes[0], f.nodes[1], f.r
		sess, idx := startMidCycle(t, r, n, a, b)
		src, dst := a, b
		if idx == 1 {
			src, dst = b, a
		}

		src.DrainAll()
		// The poller sees the node draining and its evacuation tries MIG,
		// which either answers or takes the node down with it.
		for deadline := 1000; scrape(t, r.cfg.Metrics)[`fed_proxy_latency_ns_count{verb="other"}`] == 0 && r.backends[idx].getState() != stateDead; deadline-- {
			if deadline == 0 {
				t.Fatal("the router never tried to migrate the session")
			}
			time.Sleep(10 * time.Millisecond)
		}
		samples := scrape(t, r.cfg.Metrics)
		if got := samples[`fed_nodes{state="dead"}`]; got != 0 {
			t.Errorf(`fed_nodes{state="dead"} = %d, want 0: a refused MIG is not node death`, got)
		}
		if got := samples["fed_migrated_bytes_total"]; got != 0 {
			t.Errorf("fed_migrated_bytes_total = %d, want 0", got)
		}
		if sessionsOn(src) != 1 || sessionsOn(dst) != 0 {
			t.Errorf("the session left its node: src %d open, dst %d open", sessionsOn(src), sessionsOn(dst))
		}
		finishCycle(t, sess, want[0])
	})
}

// TestWritesInSessionMigratesByteIdentically moves an FT session, whose
// kernels rewrite their input in place (task.Spec.WritesIn), so that its
// input arena is private device memory that a MIG blob does not carry: the
// target refills it from the staged input at the next H2D. It moves mid-cycle
// — a hang on the 38th launch, the 8th of the third cycle's 15, leaves the
// cycle to rerun — and after a completed cycle, over gvmfed's MIG/ADP and
// over a node's own evacuation of a shard, and RCV must equal a direct run's
// bytes every time, as must one more cycle on the target. An in-node move
// hands the input arena over and counts it in node_migrated_bytes_total.
func TestWritesInSessionMigratesByteIdentically(t *testing.T) {
	ref := workloads.Ref{Name: "ft", Params: map[string]int{"edge": 8, "nit": 2, "grid": 4}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := directReference(t, ref, 1)[0]
	in := make([]byte, w.Spec(0).InBytes)
	w.Fill(0, in)
	// A fault plan without gpu= arms every device: the source faults in the
	// third cycle, the target makes 30 launches, the replay and one cycle.
	hang, err := gpusim.ParseFaultSpec("after=38,kind=hang")
	if err != nil {
		t.Fatal(err)
	}

	cycle := func(t *testing.T, sess *ipc.Session, when string) {
		t.Helper()
		out := make([]byte, len(want))
		if err := sess.RunCycle(in, out); err != nil || !bytes.Equal(out, want) {
			t.Fatalf("%s: %v, bytes equal to the direct run's: %v", when, err, bytes.Equal(out, want))
		}
	}
	// open opens ref on addr and runs two verified cycles.
	open := func(t *testing.T, addr string) *ipc.Session {
		c, err := ipc.DialOptions(addr, ipc.Options{NoPipeline: true, Plane: transport.PlaneInline})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Request(ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		cycle(t, sess, "first cycle")
		cycle(t, sess, "second cycle")
		return sess
	}
	// stage starts the third cycle, which the source faults under in the
	// rerun case, and waits for it otherwise.
	stage := func(t *testing.T, sess *ipc.Session, rerun bool) {
		if err := sess.SendInput(in); err != nil {
			t.Fatal(err)
		}
		if err := sess.Start(); err != nil {
			t.Fatal(err)
		}
		if !rerun {
			if err := sess.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// finish collects the moved session's cycle and runs one more.
	finish := func(t *testing.T, sess *ipc.Session) {
		if err := sess.Wait(); err != nil {
			t.Fatalf("STP: %v", err)
		}
		out := make([]byte, len(want))
		if err := sess.Receive(out); err != nil || !bytes.Equal(out, want) {
			t.Fatalf("RCV after the move: %v, bytes equal to the direct run's: %v", err, bytes.Equal(out, want))
		}
		cycle(t, sess, "a cycle on the target")
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
	// faulted holds a rerun case's source device to the one hang that
	// interrupted the cycle.
	faulted := func(t *testing.T, n *testNode, gpu int, rerun bool) {
		got := scrape(t, n.reg)[fmt.Sprintf(`gpusim_faults_total{gpu="%d",kind="hang"}`, gpu)]
		if want := map[bool]int64{true: 1, false: 0}[rerun]; got != want {
			t.Errorf("the source gpu faulted %d times, want %d", got, want)
		}
	}
	await := func(t *testing.T, what string, moved func() bool) {
		for deadline := 1000; !moved(); deadline-- {
			if deadline == 0 {
				t.Fatalf("the session never moved %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	for _, rerun := range []bool{true, false} {
		name := map[bool]string{true: "rerun", false: "done"}[rerun]
		t.Run("gvmfed/"+name, func(t *testing.T) {
			cfg := ipc.ServerConfig{}
			if rerun {
				cfg.FaultPlan = hang
			}
			f := startFed(t, 20*time.Millisecond, cfg, cfg)
			a, b, r := f.nodes[0], f.nodes[1], f.r
			sess := open(t, r.Addr())
			src, dst := a, b
			if sessionsOn(b) == 1 {
				src, dst = b, a
			}
			stage(t, sess, rerun)
			if !rerun {
				src.DrainAll()
			}
			// Only a MIG counts blob bytes: a re-created session would lose
			// the staged input and never answer this STP.
			await(t, "across nodes", func() bool {
				return sessionsOn(dst) == 1 && sessionsOn(src) == 0 &&
					scrape(t, r.cfg.Metrics)["fed_migrated_bytes_total"] != 0
			})
			finish(t, sess)
			faulted(t, src, 0, rerun)
			if dead := scrape(t, r.cfg.Metrics)[`fed_nodes{state="dead"}`]; dead != 0 {
				t.Errorf(`fed_nodes{state="dead"} = %d, want 0`, dead)
			}
		})
		t.Run("in-node/"+name, func(t *testing.T) {
			c := ipc.ServerConfig{GPUs: 2}
			if rerun {
				c.FaultPlan = hang
			}
			n := startFed(t, 0, c).nodes[0]
			sess := open(t, n.Addr())
			sessions := func(gpu int) int64 {
				return scrape(t, n.reg)[fmt.Sprintf(`gvm_open_sessions{gpu="%d"}`, gpu)]
			}
			src := 0
			if sessions(1) == 1 {
				src = 1
			}
			stage(t, sess, rerun)
			if !rerun {
				n.Node().SetHealth(src, node.Draining)
			}
			await(t, "across shards", func() bool {
				return sessions(src) == 0 && sessions(1-src) == 1 && scrape(t, n.reg)["node_migrated_bytes_total"] != 0
			})
			// An in-node move hands over the private input arena beside the
			// staged input and output, and counts it.
			spec := w.Spec(0)
			if got, least := scrape(t, n.reg)["node_migrated_bytes_total"], 2*spec.InBytes+spec.OutBytes; got < least {
				t.Errorf("node_migrated_bytes_total = %d, want at least %d: the input arena, staged in and staged out", got, least)
			}
			finish(t, sess)
			faulted(t, n, src, rerun)
		})
	}
}
