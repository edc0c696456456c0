package fed

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/ipc"
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
		if nodeOpenSessions(t, node) == 1 {
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
// 30 MiB-footprint vecadd. Its blob — staged in and out, arena in and out,
// each behind a presence byte and a uvarint length — is ≈ 60 MiB, inside a
// 64 MiB frame, so the session migrates: fed_migrated_bytes_total rises by
// exactly the blob, no node is marked dead, and RCV is byte-identical.
func TestCrossNodeMigrationUnderTheFrameCeiling(t *testing.T) {
	const n = 2621440
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	want := directReference(t, "fedceil-ref", ref, 1)
	a := startNode(t, "fedceil-a", 1)
	b := startNode(t, "fedceil-b", 1)
	r := startRouter(t, "fedceil", "least-sessions", 20*time.Millisecond, a, b)
	sess, idx := startMidCycle(t, r, n, a, b)
	src, dst := a, b
	if idx == 1 {
		src, dst = b, a
	}

	src.DrainAll()
	// The target counts the session as soon as ADP lands; the router counts
	// the move only once ADP's answer is back, so wait for both.
	moved := func() bool {
		return nodeOpenSessions(t, dst) == 1 && nodeOpenSessions(t, src) == 0 &&
			scrape(t, r.cfg.Metrics)["fed_migrated_bytes_total"] != 0
	}
	for deadline := 1000; !moved(); deadline-- {
		if deadline == 0 {
			t.Fatalf("session never left the draining node: src %d open, dst %d open",
				nodeOpenSessions(t, src), nodeOpenSessions(t, dst))
		}
		time.Sleep(10 * time.Millisecond)
	}

	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	sp := w.Spec(0)
	blob := int64(2) // the state byte and the scratch count
	for _, size := range []int64{sp.InBytes, sp.OutBytes, sp.InBytes, sp.OutBytes} {
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
// a 36 MiB-footprint vecadd, ≈ 72 MiB of blob — stays where it is. Raw,
// MIG answers ERR naming both sizes on a connection that stays up, and the
// cycle MIG interrupted completes on the source, byte for byte. Through
// gvmfed, draining the node leaves it draining, not dead, and the session
// served on it.
func TestOversizedMIGServesInPlace(t *testing.T) {
	const n = 3 << 20
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	want := directReference(t, "fedbig-ref", ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("raw", func(t *testing.T) {
		node := startNode(t, "fedbig-raw", 1)
		conn, _, err := transport.Dial(node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
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
		a := startNode(t, "fedbig-a", 1)
		b := startNode(t, "fedbig-b", 1)
		r := startRouter(t, "fedbig", "least-sessions", 20*time.Millisecond, a, b)
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
		if nodeOpenSessions(t, src) != 1 || nodeOpenSessions(t, dst) != 0 {
			t.Errorf("the session left its node: src %d open, dst %d open", nodeOpenSessions(t, src), nodeOpenSessions(t, dst))
		}
		finishCycle(t, sess, want[0])
	})
}
