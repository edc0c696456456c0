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
	"sync/atomic"
	"testing"
	"time"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// testNode is a backend daemon and the registry it was built with.
type testNode struct {
	*ipc.Server
	reg    *metrics.Registry
	closed atomic.Bool // the test closed it itself
}

// Close closes the node, noting that the test did.
func (n *testNode) Close() error {
	n.closed.Store(true)
	return n.Server.Close()
}

// fedStack is a test's federation, started by startFed: backend daemons
// and, unless it was started without a poll interval, a router in front.
type fedStack struct {
	r     *Router
	nodes []*testNode
}

var (
	fedSeq   atomic.Int64 // names the inproc addresses
	stacksMu sync.Mutex
	stacks   = map[*testing.T][]*fedStack{} // each running test's, in start order
)

// startFed is how a fed test starts daemons and a router: one functional
// backend per cfg, on an inproc address, a registry and an shm directory of
// its own unless cfg names them, and — poll > 0 — a router polling them at
// that interval on an inproc address and a unix one (Addrs()[1]). A test's
// stacks end together, after every cleanup registered since the first of
// them started (every client's): the routers' audits, then their Close and
// audits again, then the backends' audits, then their Close and audits
// again, then a scrape of every registry.
func startFed(t *testing.T, poll time.Duration, cfgs ...ipc.ServerConfig) *fedStack {
	t.Helper()
	dir := t.TempDir() // its removal runs after the stacks end
	f := &fedStack{}
	backends := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if len(cfg.Listen) == 0 {
			cfg.Listen = []string{fmt.Sprintf("inproc://fed-node-%d", fedSeq.Add(1))}
		}
		if cfg.ShmDir == "" {
			cfg.ShmDir = t.TempDir()
		}
		if cfg.Metrics == nil {
			cfg.Metrics = metrics.NewRegistry()
		}
		cfg.Functional = true
		s, err := ipc.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, &testNode{Server: s, reg: cfg.Metrics})
		backends[i] = s.Addr()
	}
	stacksMu.Lock()
	fleet, ok := stacks[t]
	stacks[t] = append(fleet, f)
	stacksMu.Unlock()
	if !ok {
		t.Cleanup(func() { endFed(t) })
	}
	if poll > 0 {
		r, err := New(Config{Backends: backends, PollInterval: poll})
		if err != nil {
			t.Fatal(err)
		}
		f.r = r
		if err := r.Start([]string{fmt.Sprintf("inproc://fed-router-%d", fedSeq.Add(1)), "unix://" + filepath.Join(dir, "fed.sock")}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// endFed ends t's stacks in startFed's order.
func endFed(t *testing.T) {
	stacksMu.Lock()
	fleet := stacks[t]
	delete(stacks, t)
	stacksMu.Unlock()
	for _, f := range fleet {
		if f.r == nil {
			continue
		}
		if !t.Failed() {
			// The router's audit reads once: its clients' hang-ups release
			// after they have gone.
			held := f.r.Audit()
			for end := time.Now().Add(5 * time.Second); len(held) > 0 && time.Now().Before(end); held = f.r.Audit() {
				time.Sleep(5 * time.Millisecond)
			}
			for _, item := range held {
				t.Errorf("the router still holds %s", item)
			}
		}
		if err := f.r.Close(); err != nil {
			t.Errorf("close the router: %v", err)
		}
		if held := f.r.Audit(); len(held) > 0 && !t.Failed() {
			t.Errorf("the router still holds %s after Close", strings.Join(held, ", "))
		}
	}
	audit := func(n *testNode, when string) {
		if !t.Failed() {
			for _, item := range n.Audit() {
				t.Errorf("%s still holds %s%s", n.Addr(), item, when)
			}
		}
	}
	// The serving nodes first: their audits wait until the pool the audit
	// reads process-wide has every buffer back (the router's sticky
	// connections end on the nodes after its Close), and a closed node is
	// read once.
	for _, closed := range []bool{false, true} {
		for _, f := range fleet {
			for _, n := range f.nodes {
				if n.closed.Load() == closed {
					audit(n, "")
				}
			}
		}
	}
	for _, f := range fleet {
		for _, n := range f.nodes {
			if err := n.Close(); err != nil {
				t.Errorf("close %s: %v", n.Addr(), err)
			}
		}
	}
	for _, f := range fleet { // after every Close: nodes may share an shm directory
		regs := []*metrics.Registry{}
		if f.r != nil {
			regs = append(regs, f.r.cfg.Metrics)
		}
		for _, n := range f.nodes {
			audit(n, " after Close")
			regs = append(regs, n.reg)
		}
		for _, reg := range regs {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape after close: %v", err)
			}
		}
	}
}

// sessionsOn is how many sessions node n's managers hold, over its shards.
func sessionsOn(n *testNode) (sum int64) {
	for gpu := 0; gpu < n.Node().NumShards(); gpu++ {
		open, _ := n.reg.Value("gvm_open_sessions", metrics.L("gpu", strconv.Itoa(gpu)))
		sum += open
	}
	return sum
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
func directReference(t *testing.T, ref workloads.Ref, ranks int) [][]byte {
	t.Helper()
	srv := startFed(t, 0, ipc.ServerConfig{}).nodes[0]
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
	want := directReference(t, ref, ranks)

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
			f := startFed(t, 50*time.Millisecond, ipc.ServerConfig{GPUs: 2}, ipc.ServerConfig{GPUs: 2})
			a, b, r := f.nodes[0], f.nodes[1], f.r

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
			if ao, bo := sessionsOn(a), sessionsOn(b); ao != 2 || bo != 2 {
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
	want := directReference(t, ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	f := startFed(t, 20*time.Millisecond, ipc.ServerConfig{}, ipc.ServerConfig{})
	a, b, r := f.nodes[0], f.nodes[1], f.r

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
	if sessionsOn(b) == 1 {
		src, dst = b, a
	}
	if sessionsOn(src) != 1 {
		t.Fatal("no backend owns the session after STR")
	}
	src.DrainAll()

	// The router's next poll sees the node advertise itself unplaceable
	// and evacuates it in the background.
	for deadline := 400; sessionsOn(dst) != 1 || sessionsOn(src) != 0; deadline-- {
		if deadline == 0 {
			t.Fatalf("session never migrated: src %d open, dst %d open",
				sessionsOn(src), sessionsOn(dst))
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
	if open := sessionsOn(src); open != 0 {
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
	want := directReference(t, ref, clients)

	f := startFed(t, 20*time.Millisecond, ipc.ServerConfig{GPUs: 2}, ipc.ServerConfig{GPUs: 2})
	a, r := f.nodes[0], f.r

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
// response bytes were still on their way to the client — Router.answer now
// holds the session locks across the client write. Run under -race.
func TestDrainUnderLoadByteIdentical(t *testing.T) {
	const clients, cycles = 4, 6
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := directReference(t, ref, clients)

	f := startFed(t, 10*time.Millisecond, ipc.ServerConfig{GPUs: 2}, ipc.ServerConfig{GPUs: 2})
	a, r := f.nodes[0], f.r

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
	want := directReference(t, ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}

	f := startFed(t, 10*time.Millisecond, ipc.ServerConfig{}, ipc.ServerConfig{})
	a, b, r := f.nodes[0], f.nodes[1], f.r

	nc, _, err := transport.DialAddr(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WritePreamble(nc); err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(nc)
	defer func() { conn.Close(); conn.Release() }()

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
	if sessionsOn(b) == 1 {
		src, dst, srcIdx = b, a, 1
	}
	if sessionsOn(src) != 1 {
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
	if sessionsOn(dst) != 0 {
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
	for deadline := 400; sessionsOn(dst) != 1; deadline-- {
		if deadline == 0 {
			t.Fatal("session never migrated after the response was read")
		}
		time.Sleep(5 * time.Millisecond)
	}
	trip(transport.Request{Verb: "RLS", Session: vid})
}

// TestRouterBadPreambleDrained: like gvmd, the router drains a
// connection it turns away for its preamble — garbage, or the retired
// JSON codec's 'J' or '{' — before closing it, so bytes the client sends
// behind the bad one do not fail with EPIPE or a reset.
func TestRouterBadPreambleDrained(t *testing.T) {
	r := startFed(t, time.Hour, ipc.ServerConfig{}).r
	for _, first := range []byte{'X', 'J', '{'} {
		nc, _, err := transport.DialAddr(r.Addrs()[1]) // unix: a socket half-closes
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
	want := directReference(t, ref, 1)
	w, err := workloads.FromRef(ref)
	if err != nil {
		t.Fatal(err)
	}
	arch := fermi.TeslaC2070()
	arch.MemBytes = 64 << 10 // one vecadd-4096 session's 48 KiB of arenas
	f := startFed(t, 50*time.Millisecond, ipc.ServerConfig{Arch: arch, Overcommit: 2})
	r, reg := f.r, f.nodes[0].reg
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

// TestBATMisuseThroughRouter is ipc's TestBATMisuse for the router, the
// third front-end that checks a frame with transport.FrameSteps: a
// malformed or mistimed frame draws through it the status and error text a
// direct socket to a daemon draws, but for whose session an id names, which
// is each front-end's own table.
func TestBATMisuseThroughRouter(t *testing.T) {
	type ids struct{ own, sibling, foreign int } // foreign: another connection's
	bat := func(subs ...transport.Request) transport.Request { return transport.Request{Verb: "BAT", Batch: subs} }
	lone := func(verb string) func(ids) transport.Request {
		return func(id ids) transport.Request { return transport.Request{Verb: verb, Session: id.own} }
	}
	steps := func(verbs ...string) func(ids) transport.Request {
		return func(id ids) transport.Request {
			req := bat()
			for _, v := range verbs {
				req.Batch = append(req.Batch, transport.Request{Verb: v, Session: id.own})
			}
			return req
		}
	}
	rows := []struct {
		name  string
		frame func(ids) transport.Request
		want  string // in the router's error text; "" = exactly the daemon's answer
	}{
		{"empty", steps(), ""},
		{"req-inside", steps("REQ"), ""},
		{"duplicate-verb", steps("SND", "SND"), ""},
		{"out-of-order", steps("STR", "SND"), ""},
		{"verb-behind-RLS", steps("RLS", "SND"), ""},
		{"two-sessions", func(id ids) transport.Request {
			return bat(transport.Request{Verb: "SND", Session: id.own}, transport.Request{Verb: "SND", Session: id.sibling})
		}, ""},
		{"STP-before-STR", steps("STP"), ""},
		{"RCV-before-completion", steps("SND", "RCV"), ""},
		{"RES-without-SUS", lone("RES"), ""},
		{"lone-SUS", lone("SUS"), ""},
		{"unknown-session", func(ids) transport.Request { return bat(transport.Request{Verb: "SND", Session: 999}) }, "fed: unknown session 999"},
		{"foreign-session", func(id ids) transport.Request { return bat(transport.Request{Verb: "SND", Session: id.foreign}) }, "belongs to another connection"},
	}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}
	var inBytes int
	trip := func(c *transport.Conn, req transport.Request) *transport.Response {
		t.Helper()
		if err := c.WriteRequest(&req); err != nil {
			t.Fatal(err)
		}
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// open opens own and sibling on one connection to addr and foreign on
	// another, inline, in that order: the ids agree on both front-ends.
	open := func(addr string) (*transport.Conn, ids) {
		dial := func() *transport.Conn {
			c, _, err := transport.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close(); c.Release() })
			return c
		}
		req := func(c *transport.Conn) int {
			resp := trip(c, transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline})
			if resp.Status != "ACK" {
				t.Fatalf("REQ: %s", resp.Err)
			}
			inBytes = int(resp.InBytes)
			return resp.Session
		}
		c := dial()
		id := ids{own: req(c), sibling: req(c)}
		id.foreign = req(dial())
		return c, id
	}
	// answer sends the frame, a leading SND of its own session's carrying
	// the input, and returns its error, else its first failing step's.
	answer := func(c *transport.Conn, id ids, frame func(ids) transport.Request) string {
		req := frame(id)
		if len(req.Batch) > 0 && req.Batch[0].Verb == "SND" && req.Batch[0].Session == id.own {
			req.Batch[0].Data = make([]byte, inBytes)
		}
		resp := trip(c, req)
		if resp.Status != "ACK" {
			return resp.Status + " " + resp.Err
		}
		for _, r := range resp.Batch {
			if r.Status != "ACK" {
				return r.Status + " " + r.Err
			}
		}
		return ""
	}
	direct, directIDs := open(startFed(t, 0, ipc.ServerConfig{}).nodes[0].Addr())
	routed, routedIDs := open(startFed(t, time.Hour, ipc.ServerConfig{}).r.Addr())
	for _, row := range rows {
		want, got := answer(direct, directIDs, row.frame), answer(routed, routedIDs, row.frame)
		if row.want == "" && got != want || row.want != "" && !strings.Contains(got, row.want) {
			t.Errorf("%s: the router answers %q, the daemon %q", row.name, got, want)
		}
	}
}
