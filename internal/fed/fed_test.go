package fed

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// startNode runs one in-process gvmd backend on an inproc transport.
func startNode(t *testing.T, name string, gpus int) *testNode {
	t.Helper()
	return startNodeWith(t, ipc.ServerConfig{Listen: []string{"inproc://" + name}, GPUs: gpus})
}

// startNodeWith runs cfg as a functional in-process backend with a
// registry and an shm directory of its own.
func startNodeWith(t *testing.T, cfg ipc.ServerConfig) *testNode {
	t.Helper()
	reg := metrics.NewRegistry()
	cfg.Functional, cfg.ShmDir, cfg.Metrics = true, t.TempDir(), reg
	s, err := ipc.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &testNode{Server: s, reg: reg}
}

// testNode is a backend daemon and the registry it was built with.
type testNode struct {
	*ipc.Server
	reg *metrics.Registry
}

// startRouter runs a gvmfed router fronting the given backends.
func startRouter(t *testing.T, name string, poll time.Duration, nodes ...*testNode) *Router {
	t.Helper()
	backs := make([]string, len(nodes))
	for i, n := range nodes {
		backs[i] = n.Addr()
	}
	r, err := New(Config{Backends: backs, PollInterval: poll})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start([]string{"inproc://" + name}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// nodeOpenSessions sums the gvm_open_sessions gauge over a backend's
// shards, scraped from the node's registry. A shard without the sample
// fails the test and the sum reads -1.
func nodeOpenSessions(t *testing.T, n *testNode) int64 {
	t.Helper()
	samples := scrape(t, n.reg)
	var open int64
	for i := 0; i < n.Node().NumShards(); i++ {
		v, ok := samples[fmt.Sprintf(`gvm_open_sessions{gpu="%d"}`, i)]
		if !ok {
			t.Errorf("node scrape has no gvm_open_sessions sample for gpu %d", i)
			return -1
		}
		open += v
	}
	return open
}

var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+(\.\d+)?$`)

// scrape reads a registry through metrics.Serve on a loopback listener
// into a sample map (integer-valued samples only, which is all the fed_*
// series emit).
func scrape(t *testing.T, reg *metrics.Registry) map[string]int64 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go metrics.Serve(ln, reg)
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed Prometheus sample line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue // histogram quantile with decimals; fed asserts use counters
		}
		out[line[:sp]] = v
	}
	return out
}

// directReference computes each rank's expected output bytes on a
// dedicated single-node daemon with serial verbs — the migration-free,
// federation-free baseline every federated run must match byte for
// byte.
func directReference(t *testing.T, name string, ref workloads.Ref, ranks int) [][]byte {
	t.Helper()
	srv := startNode(t, name, 1)
	c, err := ipc.DialOptions(srv.Addr(), ipc.Options{NoPipeline: true, Plane: transport.PlaneInline})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, ranks)
	for rank := 0; rank < ranks; rank++ {
		sess, err := c.Request(ref, rank)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]byte, w.Spec(0).InBytes)
		out := make([]byte, w.Spec(0).OutBytes)
		w.Fill(rank, in)
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatal(err)
		}
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
		want[rank] = out
	}
	return want
}

// TestFederationMatrixByteIdentical runs an inproc router fronting 2 nodes
// once per node-level policy name the router has known. Under the one
// policy it must spread 4 held sessions 2/2 and serve RCV bytes identical
// to a direct single-node serial run — the federation hop, the forced
// inline plane, and the node-level placement must be invisible in the
// data. A retired name must fail New with an error naming the one policy.
func TestFederationMatrixByteIdentical(t *testing.T) {
	const ranks = 4
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 512}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := directReference(t, "fedmatrix-ref", ref, ranks)

	for _, policy := range []string{node.LeastSessions, "least-memory", "slo"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			if policy != node.LeastSessions {
				_, err := New(Config{Backends: []string{"inproc://fedmatrix-unused"}, Placement: policy})
				if err == nil || !strings.Contains(err.Error(), node.LeastSessions) {
					t.Fatalf("New with placement %q: %v, want an error naming %s", policy, err, node.LeastSessions)
				}
				return
			}
			a := startNode(t, "fedmatrix-a", 2)
			b := startNode(t, "fedmatrix-b", 2)
			r := startRouter(t, "fedmatrix", 50*time.Millisecond, a, b)

			// Open every session up front so the placer sees the earlier
			// placements, then run the cycles pipelined through the proxy.
			clients := make([]*ipc.Client, ranks)
			sessions := make([]*ipc.Session, ranks)
			for rank := 0; rank < ranks; rank++ {
				c, err := ipc.DialOptions(r.Addr(), ipc.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				clients[rank] = c
				sess, err := c.Request(ref, rank)
				if err != nil {
					t.Fatalf("%s: REQ rank %d: %v", policy, rank, err)
				}
				sessions[rank] = sess
			}
			// The canonical spread: 4 held sessions across 2 nodes go 2/2.
			if ao, bo := nodeOpenSessions(t, a), nodeOpenSessions(t, b); ao != 2 || bo != 2 {
				t.Fatalf("spread = %d/%d, want 2/2", ao, bo)
			}
			for rank, sess := range sessions {
				in := make([]byte, w.Spec(0).InBytes)
				out := make([]byte, w.Spec(0).OutBytes)
				w.Fill(rank, in)
				if err := sess.RunCycle(in, out); err != nil {
					t.Fatalf("%s: rank %d cycle: %v", policy, rank, err)
				}
				if !bytes.Equal(out, want[rank]) {
					t.Fatalf("%s: rank %d output differs from direct single-node reference", policy, rank)
				}
				if err := sess.Release(); err != nil {
					t.Fatal(err)
				}
			}
			if ao, bo := nodeOpenSessions(t, a), nodeOpenSessions(t, b); ao != 0 || bo != 0 {
				t.Fatalf("backends hold %d/%d sessions after release, want 0/0", ao, bo)
			}
			samples := scrape(t, r.cfg.Metrics)
			if got := samples[`fed_nodes{state="alive"}`]; got != 2 {
				t.Errorf(`fed_nodes{state="alive"} = %d, want 2`, got)
			}
			if got := samples[`fed_proxy_latency_ns_count{verb="REQ"}`]; got != ranks {
				t.Errorf("REQ proxy latency count = %d, want %d", got, ranks)
			}
			if got := samples[`fed_proxy_latency_ns_count{verb="BAT"}`]; got < ranks {
				t.Errorf("BAT proxy latency count = %d, want >= %d", got, ranks)
			}
		})
	}
}

// TestCrossNodeMigrationMidJobByteIdentical drains a whole backend node
// while a session is mid-cycle on it: the router must extract the
// session (MIG), adopt it on the survivor (ADP), and serve the
// remaining STP/RCV from there with bytes identical to an undisturbed
// run — and the source node must end with zero open sessions, zero
// device memory in use and zero reserved bytes.
func TestCrossNodeMigrationMidJobByteIdentical(t *testing.T) {
	const n = 1024
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	want := directReference(t, "fedmig-ref", ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	a := startNode(t, "fedmig-a", 1)
	b := startNode(t, "fedmig-b", 1)
	r := startRouter(t, "fedmig", 20*time.Millisecond, a, b)

	c, err := ipc.DialOptions(r.Addr(), ipc.Options{NoPipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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

	// The session is mid-job on one of the nodes; drain that whole node.
	src, dst := a, b
	if nodeOpenSessions(t, b) == 1 {
		src, dst = b, a
	}
	if nodeOpenSessions(t, src) != 1 {
		t.Fatal("no backend owns the session after STR")
	}
	src.DrainAll()

	// The router's next poll sees the node advertise itself unplaceable
	// and evacuates it in the background.
	for deadline := 400; nodeOpenSessions(t, dst) != 1 || nodeOpenSessions(t, src) != 0; deadline-- {
		if deadline == 0 {
			t.Fatalf("session never migrated: src %d open, dst %d open",
				nodeOpenSessions(t, src), nodeOpenSessions(t, dst))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// STP and RCV are served by the surviving node, byte-identically.
	if err := sess.Wait(); err != nil {
		t.Fatalf("Wait across cross-node migration: %v", err)
	}
	out := make([]byte, w.Spec(0).OutBytes)
	if err := sess.Receive(out); err != nil {
		t.Fatalf("Receive across cross-node migration: %v", err)
	}
	if !bytes.Equal(out, want[0]) {
		t.Fatal("RCV bytes changed across cross-node migration")
	}

	// The source node is fully empty: session registry, device memory,
	// reservations, and placement counters.
	sh := src.Node().Shard(0)
	if open := nodeOpenSessions(t, src); open != 0 {
		t.Errorf("source node still has %d open sessions", open)
	}
	if inUse := sh.Dev.MemInUse(); inUse != 0 {
		t.Errorf("source node still has %d bytes of device memory in use", inUse)
	}
	if reserved := sh.Dev.MemReserved(); reserved != 0 {
		t.Errorf("source node still has %d bytes reserved", reserved)
	}
	for _, l := range src.Node().Loads() {
		if l.Sessions != 0 || l.Bytes != 0 {
			t.Errorf("source gpu %d placement not drained: %d sessions, %d bytes",
				l.Shard, l.Sessions, l.Bytes)
		}
	}

	samples := scrape(t, r.cfg.Metrics)
	if got := samples["fed_failovers_total"]; got < 1 {
		t.Errorf("fed_failovers_total = %d, want >= 1", got)
	}
	if got := samples["fed_migrated_bytes_total"]; got <= 0 {
		t.Errorf("fed_migrated_bytes_total = %d, want > 0", got)
	}
	if got := samples[`fed_nodes{state="draining"}`]; got != 1 {
		t.Errorf(`fed_nodes{state="draining"} = %d, want 1`, got)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationChaosKillNodeMidRun is the e2e federation acceptance
// test: 8 pipelined clients run cycles through the router against 2
// nodes x 2 shards while one backend dies outright mid-run. Every
// session on the dead node is re-created on the survivor and its
// replayed cycles produce bytes identical to a single-node serial
// reference — no session lost.
func TestFederationChaosKillNodeMidRun(t *testing.T) {
	const clients, cycles = 8, 3
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := directReference(t, "fedchaos-ref", ref, clients)

	a := startNode(t, "fedchaos-a", 2)
	b := startNode(t, "fedchaos-b", 2)
	r := startRouter(t, "fedchaos", 20*time.Millisecond, a, b)

	var (
		firstCycle sync.WaitGroup
		barrier    = make(chan struct{})
		wg         sync.WaitGroup
		errs       = make([]error, clients)
	)
	firstCycle.Add(clients)
	for rank := 0; rank < clients; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				c, err := ipc.DialOptions(r.Addr(), ipc.Options{})
				if err != nil {
					firstCycle.Done()
					return err
				}
				defer c.Close()
				sess, err := c.Request(ref, rank)
				if err != nil {
					firstCycle.Done()
					return err
				}
				in := make([]byte, w.Spec(0).InBytes)
				out := make([]byte, w.Spec(0).OutBytes)
				w.Fill(rank, in)
				for i := 0; i < cycles; i++ {
					if err := sess.RunCycle(in, out); err != nil {
						if i == 0 {
							firstCycle.Done()
						}
						return fmt.Errorf("rank %d cycle %d: %w", rank, i, err)
					}
					if !bytes.Equal(out, want[rank]) {
						if i == 0 {
							firstCycle.Done()
						}
						return fmt.Errorf("rank %d cycle %d: output differs from serial reference", rank, i)
					}
					if i == 0 {
						firstCycle.Done()
						<-barrier // every rank finishes cycle 0 before the kill
					}
				}
				return sess.Release()
			}()
		}(rank)
	}
	firstCycle.Wait()
	// Hard kill: no drain, no advertisement — the node just dies with 4
	// sessions' state. Clients discover it mid-verb, the router marks the
	// node dead, re-creates the sessions on the survivor, and the
	// clients' retry loops replay the cycles.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(barrier)
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d lost its session: %v", rank, err)
		}
	}
	if open := nodeOpenSessions(t, b); open != 0 {
		t.Errorf("surviving node holds %d sessions after release, want 0", open)
	}

	samples := scrape(t, r.cfg.Metrics)
	if got := samples["fed_failovers_total"]; got < 1 {
		t.Errorf("fed_failovers_total = %d, want >= 1 (4 sessions died with the node)", got)
	}
	if got := samples[`fed_nodes{state="dead"}`]; got != 1 {
		t.Errorf(`fed_nodes{state="dead"} = %d, want 1`, got)
	}
	if got := samples[`fed_nodes{state="alive"}`]; got != 1 {
		t.Errorf(`fed_nodes{state="alive"} = %d, want 1`, got)
	}
	if got := samples[`fed_placed_sessions{node="0"}`] + samples[`fed_placed_sessions{node="1"}`]; got != 0 {
		t.Errorf("fed_placed_sessions sum = %d after all releases, want 0", got)
	}
}

// TestDrainUnderLoadByteIdentical drains a whole node while pipelined
// clients stream cycles through the router. It pins the response-write
// vs background-evacuation race: a verb response can alias its sticky
// connection's pooled read buffer, and the evacuation goroutine used to
// be able to reuse (MIG) and pool (teardown) that buffer while the
// response bytes were still on their way to the client — serveConn now
// holds the session locks across the client write. Run under -race.
func TestDrainUnderLoadByteIdentical(t *testing.T) {
	const clients, cycles = 4, 6
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := directReference(t, "feddrain-ref", ref, clients)

	a := startNode(t, "feddrain-a", 2)
	b := startNode(t, "feddrain-b", 2)
	r := startRouter(t, "feddrain", 10*time.Millisecond, a, b)

	var (
		firstCycle sync.WaitGroup
		barrier    = make(chan struct{})
		wg         sync.WaitGroup
		errs       = make([]error, clients)
	)
	firstCycle.Add(clients)
	for rank := 0; rank < clients; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			first := true
			done := func() {
				if first {
					first = false
					firstCycle.Done()
					<-barrier
				}
			}
			errs[rank] = func() error {
				c, err := ipc.DialOptions(r.Addr(), ipc.Options{})
				if err != nil {
					done()
					return err
				}
				defer c.Close()
				sess, err := c.Request(ref, rank)
				if err != nil {
					done()
					return err
				}
				in := make([]byte, w.Spec(0).InBytes)
				out := make([]byte, w.Spec(0).OutBytes)
				w.Fill(rank, in)
				for i := 0; i < cycles; i++ {
					if err := sess.RunCycle(in, out); err != nil {
						done()
						return fmt.Errorf("rank %d cycle %d: %w", rank, i, err)
					}
					if !bytes.Equal(out, want[rank]) {
						done()
						return fmt.Errorf("rank %d cycle %d: output differs from serial reference", rank, i)
					}
					done()
				}
				return sess.Release()
			}()
		}(rank)
	}
	firstCycle.Wait()
	// Drain node a with its sessions mid-run, wait for the poller to see
	// the advertisement (the draining transition spawns the background
	// evacuation), then release the clients so their response traffic
	// overlaps the evacuation's MIG/ADP trips.
	a.DrainAll()
	for deadline := 400; r.backends[0].getState() != stateDraining; deadline-- {
		if deadline == 0 {
			t.Fatal("router never saw node 0 draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(barrier)
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if ao, bo := nodeOpenSessions(t, a), nodeOpenSessions(t, b); ao != 0 || bo != 0 {
		t.Errorf("backends hold %d/%d sessions after release, want 0/0", ao, bo)
	}
	samples := scrape(t, r.cfg.Metrics)
	if got := samples["fed_failovers_total"]; got < 1 {
		t.Errorf("fed_failovers_total = %d, want >= 1 (node 0's sessions had to move)", got)
	}
}

// TestEvacuationWaitsForInFlightResponse pins the response-write vs
// background-evacuation race deterministically: a raw client issues RCV
// and delays reading the response. The inproc pipe is synchronous, so
// the router parks inside WriteResponse with the response Data still
// aliasing the sticky connection's pooled read buffer. The whole source
// node then drains; the background evacuation must NOT migrate the
// session — its MIG would read its blob into, and then pool, that very
// buffer — until the response has left. Run under -race: unlocking the
// session before the client write fails both the byte comparison and
// the race detector here.
func TestEvacuationWaitsForInFlightResponse(t *testing.T) {
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}
	want := directReference(t, "fedpark-ref", ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	a := startNode(t, "fedpark-a", 1)
	b := startNode(t, "fedpark-b", 1)
	r := startRouter(t, "fedpark", 10*time.Millisecond, a, b)

	nc, _, err := transport.DialAddr(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := transport.WritePreamble(nc); err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)

	trip := func(req transport.Request) transport.Response {
		t.Helper()
		if err := conn.WriteRequest(&req); err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		resp, err := conn.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		if resp.Status != "ACK" {
			t.Fatalf("%s: %s", req.Verb, resp.Err)
		}
		return *resp
	}
	opened := trip(transport.Request{Verb: "REQ", Ref: &ref, Rank: 0})
	vid := opened.Session
	in := make([]byte, opened.InBytes)
	w.Fill(0, in)
	trip(transport.Request{Verb: "SND", Session: vid, Data: in})
	trip(transport.Request{Verb: "STR", Session: vid})
	trip(transport.Request{Verb: "STP", Session: vid})

	src, dst, srcIdx := a, b, 0
	if nodeOpenSessions(t, b) == 1 {
		src, dst, srcIdx = b, a, 1
	}
	if nodeOpenSessions(t, src) != 1 {
		t.Fatal("no node owns the session")
	}

	// RCV goes out but its response stays unread: the router trips the
	// backend, then parks in WriteResponse on the synchronous pipe.
	if err := conn.WriteRequest(&transport.Request{Verb: "RCV", Session: vid}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the proxy reach the parked write

	src.DrainAll()
	for deadline := 400; r.backends[srcIdx].getState() != stateDraining; deadline-- {
		if deadline == 0 {
			t.Fatal("router never saw the source node draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Give the background evacuation every chance to (wrongly) touch the
	// parked session before the response is read.
	time.Sleep(150 * time.Millisecond)

	// The evacuation must be parked on the session lock: as long as the
	// RCV response is in flight, the session cannot have moved — a move
	// would have read the MIG blob into, and then pooled, the very
	// buffer the in-flight response aliases.
	if nodeOpenSessions(t, dst) != 0 {
		t.Fatal("evacuation moved the session while its RCV response was still in flight")
	}

	resp, err := conn.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ACK" {
		t.Fatalf("RCV: %s", resp.Err)
	}
	if !bytes.Equal(resp.Data, want[0]) {
		t.Fatal("RCV bytes corrupted by concurrent evacuation")
	}

	// With the response delivered the evacuation proceeds: the session
	// lands on the survivor and RLS empties both nodes.
	for deadline := 400; nodeOpenSessions(t, dst) != 1; deadline-- {
		if deadline == 0 {
			t.Fatal("session never migrated after the response was read")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trip(transport.Request{Verb: "RLS", Session: vid})
	if ao, bo := nodeOpenSessions(t, a), nodeOpenSessions(t, b); ao != 0 || bo != 0 {
		t.Errorf("backends hold %d/%d sessions after release, want 0/0", ao, bo)
	}
}

// TestRouterBadPreambleDrained: like gvmd, the router drains a
// connection it turns away for its preamble — garbage, or the retired
// JSON codec's 'J' or '{' — before closing it, so bytes the client sends
// behind the bad one do not fail with EPIPE or a reset.
func TestRouterBadPreambleDrained(t *testing.T) {
	n := startNode(t, "fed-preamble-n0", 1)
	r, err := New(Config{Backends: []string{n.Addr()}, Placement: "least-sessions", PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start([]string{"unix://" + filepath.Join(t.TempDir(), "fed.sock")}); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, first := range []byte{'X', 'J', '{'} {
		nc, _, err := transport.DialAddr(r.Addrs()[0])
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		if _, err := nc.Write([]byte{first}); err != nil {
			t.Fatal(err)
		}
		// The router half-closes once it has rejected the byte: EOF here
		// means it is past the point where it used to close outright.
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
			t.Fatalf("%q: read after rejection = %d, %v; want a clean EOF", first, n, err)
		}
		if _, err := nc.Write(make([]byte, 4096)); err != nil {
			t.Fatalf("%q: write behind a rejected preamble: %v", first, err)
		}
	}
}

// TestFederatedEviction: an eviction is the node's own business. A
// session whose input is staged through the router, evicted when a second
// session lands on its one-session card, runs its cycle byte-identical to a
// direct single-node run, its arena restored by the verbs the router
// forwards.
func TestFederatedEviction(t *testing.T) {
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 4096}}
	want := directReference(t, "fedevict-ref", ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // one vecadd-4096 session's 48 KiB of arenas
	reg := metrics.NewRegistry()
	node, err := ipc.NewServer(ipc.ServerConfig{
		Listen:     []string{"inproc://fedevict-node"},
		Functional: true,
		ShmDir:     t.TempDir(),
		Arch:       arch,
		Overcommit: 2,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	r := startRouter(t, "fedevict", 50*time.Millisecond, &testNode{Server: node, reg: reg})
	c, err := ipc.DialOptions(r.Addr(), ipc.Options{NoPipeline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, w.Spec(0).InBytes)
	out := make([]byte, w.Spec(0).OutBytes)
	w.Fill(0, in)
	if err := sess.SendInput(in); err != nil {
		t.Fatal(err)
	}
	other, err := c.Request(ref, 1)
	if err != nil {
		t.Fatal(err)
	}
	const evictions, restores = `gvm_evictions_total{gpu="0"}`, `gvm_restores_total{gpu="0"}`
	if got := scrape(t, reg)[evictions]; got != 1 {
		t.Fatalf("%s = %d after the second REQ, want 1", evictions, got)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Receive(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want[0]) {
		t.Fatal("the evicted session's cycle through the router changed the output bytes")
	}
	if got := scrape(t, reg)[restores]; got != 1 {
		t.Fatalf("%s = %d, want 1", restores, got)
	}
	for _, s := range []*ipc.Session{sess, other} {
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}
}
