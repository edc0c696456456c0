package fed

import (
	"path/filepath"
	"testing"
	"time"

	"gpuvirt/internal/ipc"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

var closeRef = workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}

// closeWithin runs close and fails the test unless it returns, without an
// error, within 2 s.
func closeWithin(t *testing.T, what string, close func() error) {
	t.Helper()
	closed := make(chan error, 1)
	go func() { closed <- close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close %s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("closing %s still hangs after 2 s", what)
	}
}

// requestsServed is node n's gvm_requests_total on its one GPU.
func requestsServed(n *testNode) int64 {
	v, _ := n.reg.Value("gvm_requests_total", metrics.L("gpu", "0"))
	return v
}

// TestClosedDaemonAnswersNothing closes a gvmd (each listener kind) and a
// gvmfed with clients still connected: one idle on a raw connection, one with
// an open session and no frame in flight, one parked at STR and one parked
// mid-BAT (Parties 3: the two parked frames wait for a third). Close must
// return within 2 s and end every connection: the parked frames fail, the
// idle connection's next frame reads EOF or a closed-connection error, never
// an answer, no connection goroutine is left, and the audit is empty.
func TestClosedDaemonAnswersNothing(t *testing.T) {
	for _, row := range []struct{ name, listen string }{
		{"gvmd-unix", "unix://"},
		{"gvmd-tcp", "tcp://127.0.0.1:0"},
		{"gvmd-inproc", ""},
		{"gvmd-ring", "ring://"},
		{"gvmfed", ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ipc.ServerConfig{Parties: 3, ShmDir: dir}
			switch row.listen {
			case "":
			case "unix://", "ring://":
				cfg.Listen = []string{row.listen + filepath.Join(dir, "gvmd.sock")}
			default:
				cfg.Listen = []string{row.listen}
			}
			poll := time.Duration(0)
			if row.name == "gvmfed" {
				poll = time.Hour
			}
			f := startFed(t, poll, cfg)
			n := f.nodes[0]
			addr, reg, close, audit := n.Addr(), n.reg, n.Close, n.Audit
			if f.r != nil {
				addr, reg, close, audit = f.r.Addr(), f.r.cfg.Metrics, f.r.Close, f.r.Audit
			}

			idle, _, err := transport.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			var parked []chan error
			var clients []*ipc.Client
			for i, frame := range []string{"", "STR", "BAT"} {
				c, err := ipc.DialOptions(addr, ipc.Options{ShmDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				clients = append(clients, c)
				sess, err := c.Request(closeRef, i)
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan error, 1)
				switch frame {
				case "STR":
					go func() { done <- sess.Start() }()
				case "BAT":
					go func() { done <- sess.RunCycle(make([]byte, 2*64*4), make([]byte, 64*4)) }()
				default:
					continue
				}
				parked = append(parked, done)
			}
			// Three REQs, the STR, and the BAT's SND and STR.
			for requestsServed(n) < 6 {
				time.Sleep(time.Millisecond)
			}

			closeWithin(t, row.name, close)
			if conns, _ := reg.Value("ipc_connections"); conns != 0 {
				t.Errorf("%d connections still served after Close", conns)
			}
			for i, done := range parked {
				select {
				case err := <-done:
					if err == nil {
						t.Errorf("parked frame %d was acknowledged", i)
					}
				case <-time.After(2 * time.Second):
					t.Errorf("parked frame %d never returned", i)
				}
			}
			req := &transport.Request{Verb: "STA"}
			if f.r != nil {
				req = &transport.Request{Verb: "REQ", Ref: &closeRef}
			}
			if err := idle.WriteRequest(req); err == nil {
				if resp, err := idle.ReadResponse(); err == nil {
					t.Errorf("a closed %s answered %s with %s (session %d)", row.name, req.Verb, resp.Status, resp.Session)
				}
			}
			// The pool the audit reads is process-wide: the clients' own read
			// buffers go back first.
			idle.Close()
			idle.Release()
			for _, c := range clients {
				c.Close()
			}
			if held := audit(); len(held) > 0 {
				t.Errorf("after Close %s holds %v", row.name, held)
			}
			if f.r != nil {
				// The router's hang-ups closed the sticky connections, but a
				// backend frame parked at its barrier does not see its own
				// hang-up: the backend releases those sessions as it closes.
				closeWithin(t, "the backend", n.Close)
				if held := n.Audit(); len(held) > 0 {
					t.Errorf("after Close the backend holds %v", held)
				}
			}
		})
	}
}

// TestCloseWithFrameParkedAtBackendBarrier is the router's twin of
// ipc.TestCloseWithFrameParkedAtBarrier: a client's STR forwarded to a
// Parties 2 backend parks at its barrier, and the router's Close must not
// wait behind it — the forwarding frame holds its session's lock for the
// whole backend trip.
func TestCloseWithFrameParkedAtBackendBarrier(t *testing.T) {
	f := startFed(t, time.Hour, ipc.ServerConfig{Parties: 2})
	c, err := ipc.DialOptions(f.r.Addr(), ipc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Request(closeRef, 0)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- sess.Start() }()
	for requestsServed(f.nodes[0]) < 2 { // the REQ and the STR
		time.Sleep(time.Millisecond)
	}
	closeWithin(t, "the router", f.r.Close)
	select {
	case err := <-parked:
		if err == nil {
			t.Error("the parked STR was acknowledged")
		}
	case <-time.After(2 * time.Second):
		t.Error("the client's parked STR never returned")
	}
	// The backend's own frame stays parked until the backend closes.
	closeWithin(t, "the backend", f.nodes[0].Close)
}

// TestClosedBackendGoesDead: a backend gvmd that closes while the router
// polls it ends the router's control connection, so within two poll
// intervals the node reads dead and placement skips it.
func TestClosedBackendGoesDead(t *testing.T) {
	const poll = 150 * time.Millisecond
	f := startFed(t, poll, ipc.ServerConfig{}, ipc.ServerConfig{})
	r := f.r
	dead := func() int64 {
		v, _ := r.cfg.Metrics.Value("fed_nodes", metrics.L("state", "dead"))
		return v
	}
	time.Sleep(poll + poll/2) // a poll on the control connections dialed at Start
	if n := dead(); n != 0 {
		t.Fatalf("fed_nodes{state=\"dead\"} reads %d before any backend closed", n)
	}
	closeWithin(t, "backend 0", f.nodes[0].Close)
	for end := time.Now().Add(2 * poll); dead() != 1 && time.Now().Before(end); {
		time.Sleep(5 * time.Millisecond)
	}
	if n := dead(); n != 1 {
		t.Fatalf("fed_nodes{state=\"dead\"} reads %d two poll intervals after a backend closed, want 1", n)
	}
	if h := r.backends[0].load().Health; h.Placeable() {
		t.Fatalf("the closed node still reads %v", h)
	}
	c, err := ipc.DialOptions(r.Addr(), ipc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Request(closeRef, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	if on := sessionsOn(f.nodes[1]); on != 1 {
		t.Fatalf("the survivor holds %d sessions after a REQ, want 1", on)
	}
}
