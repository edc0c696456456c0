package ipc

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// startServerOn starts a daemon on an explicit listener set.
func startServerOn(t testing.TB, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.ShmDir == "" {
		cfg.ShmDir = t.TempDir()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// vecaddCycle runs one functional vecadd cycle and returns the output
// bytes the daemon produced.
func vecaddCycle(t *testing.T, c *Client, n, rank int) []byte {
	t.Helper()
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, rank)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		in[i] = float32(i)
		in[n+i] = 0.5
	}
	out := make([]byte, n*4)
	if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
		t.Fatal(err)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTransportPlaneMatrix drives the same functional workload through
// every transport with every data plane: one daemon, six ways in, one
// right answer — and the same bytes whether staging was the mapped
// segment (shm) or a heap copy of the frame payload (inline).
func TestTransportPlaneMatrix(t *testing.T) {
	s := startServerOn(t, ServerConfig{
		Listen: []string{
			"unix://" + tempSocket(t),
			"tcp://127.0.0.1:0",
			"inproc://matrix",
		},
		Functional: true,
	})
	addrs := s.Addrs()
	const n = 1024
	outs := make(map[string][]byte)
	defer func() {
		for name, out := range outs {
			if string(out) != string(outs["tcp/inline"]) {
				t.Errorf("%s: RCV bytes differ from the tcp/inline reference", name)
			}
		}
	}()
	for i, addr := range addrs {
		for _, plane := range []string{transport.PlaneShm, transport.PlaneInline} {
			addr, plane := addr, plane
			name := fmt.Sprintf("%s/%s", []string{"unix", "tcp", "inproc"}[i], plane)
			t.Run(name, func(t *testing.T) {
				c, err := DialOptions(addr, Options{ShmDir: s.cfg.ShmDir, Plane: plane})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got := sess.Plane(); got != plane {
					t.Fatalf("negotiated plane %q, want %q", got, plane)
				}
				if err := sess.Release(); err != nil {
					t.Fatal(err)
				}
				out := vecaddCycle(t, c, n, 0)
				outs[name] = out
				res := cuda.Float32s(byteMem(out), 0, n)
				for j := 0; j < n; j++ {
					if res[j] != float32(j)+0.5 {
						t.Fatalf("out[%d] = %g", j, res[j])
					}
				}
			})
		}
	}
}

// TestTCPInlineMatchesUnixShm is the acceptance check for the data-plane
// split: a TCP client on the inline plane must receive byte-identical
// RCV results to a unix-socket client on the shm plane for the same
// workload.
func TestTCPInlineMatchesUnixShm(t *testing.T) {
	s := startServerOn(t, ServerConfig{
		Listen:     []string{"unix://" + tempSocket(t), "tcp://127.0.0.1:0"},
		Functional: true,
	})
	unixAddr, tcpAddr := s.Addrs()[0], s.Addrs()[1]

	const n = 2048
	cu, err := DialOptions(unixAddr, Options{ShmDir: s.cfg.ShmDir}) // unix defaults to shm
	if err != nil {
		t.Fatal(err)
	}
	defer cu.Close()
	ct, err := DialOptions(tcpAddr, Options{ShmDir: s.cfg.ShmDir}) // tcp defaults to inline
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	outShm := vecaddCycle(t, cu, n, 0)
	outInline := vecaddCycle(t, ct, n, 0)
	if string(outShm) != string(outInline) {
		t.Fatal("tcp/inline output differs from unix/shm output for the same workload")
	}
}

// TestBadPreambleDrained: a connection turned away for its preamble —
// garbage, or the first byte of the JSON codec this daemon once spoke,
// announced ('J') or not ('{') — is drained before it is closed, so what
// the client sends behind the bad byte is not answered with EPIPE or a
// reset: it reads a clean EOF.
func TestBadPreambleDrained(t *testing.T) {
	for _, first := range []byte{'X', 'J', '{'} {
		t.Run(string(first), func(t *testing.T) {
			addr := "unix://" + tempSocket(t)
			s := startServerOn(t, ServerConfig{Listen: []string{addr}})
			nc, _, err := transport.DialAddr(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			if _, err := nc.Write([]byte{first}); err != nil {
				t.Fatal(err)
			}
			// Let the daemon see and reject the byte before the rest arrives.
			for deadline := 400; scrapeMetrics(t, s.cfg.Metrics)["ipc_frame_errors_total"] == 0; deadline-- {
				if deadline == 0 {
					t.Fatal("bad preamble never counted")
				}
				time.Sleep(5 * time.Millisecond)
			}
			if _, err := nc.Write(make([]byte, 4096)); err != nil {
				t.Fatalf("write behind a rejected preamble: %v", err)
			}
			nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := nc.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Fatalf("read after rejection = %d, %v; want a clean EOF", n, err)
			}
		})
	}
}

// TestDisconnectMidSessionFreesResources kills a client between SND and
// STR — the worst spot, with the input staged and a barrier pending —
// and checks the daemon releases the session, frees its device memory,
// and (with a barrier timeout) lets the surviving party complete.
func TestDisconnectMidSessionFreesResources(t *testing.T) {
	for _, scheme := range []string{"unix", "tcp"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			addr := "tcp://127.0.0.1:0"
			if scheme == "unix" {
				addr = "unix://" + tempSocket(t)
			}
			s := startServerOn(t, ServerConfig{
				Listen:         []string{addr},
				Parties:        2,
				Functional:     true,
				BarrierTimeout: 100 * sim.Millisecond,
			})

			victim, err := DialOptions(s.Addr(), Options{ShmDir: s.cfg.ShmDir})
			if err != nil {
				t.Fatal(err)
			}
			vs, err := victim.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := vs.SendInput(make([]byte, vs.inBytes)); err != nil {
				t.Fatal(err)
			}
			var memAfterREQ int64 = -1
			if !s.submitProbe(0, func() { memAfterREQ = s.node.Shard(0).Dev.MemInUse() }) {
				t.Fatal("server closed early")
			}
			if memAfterREQ <= 0 {
				t.Fatalf("expected device memory in use after REQ, got %d", memAfterREQ)
			}
			victim.Close() // dies between SND and STR

			// The survivor runs a full cycle; the barrier timeout flushes
			// its STR without the dead peer.
			survivor, err := DialOptions(s.Addr(), Options{ShmDir: s.cfg.ShmDir})
			if err != nil {
				t.Fatal(err)
			}
			defer survivor.Close()
			done := make(chan error, 1)
			go func() {
				sess, err := survivor.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 512}}, 1)
				if err != nil {
					done <- err
					return
				}
				if err := sess.RunCycle(make([]byte, sess.inBytes), make([]byte, sess.outBytes)); err != nil {
					done <- err
					return
				}
				done <- sess.Release()
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("survivor: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("survivor wedged behind the dead client's barrier slot")
			}

			// Disconnect cleanup is asynchronous: poll until the victim's
			// session is gone and its device memory is back.
			for deadline := 400; deadline > 0; deadline-- {
				open, mem := -1, int64(-1)
				if !s.submitProbe(0, func() {
					open = gvmCount(t, s.cfg.Metrics, s.node.Shard(0).Mgr, "gvm_open_sessions")
					mem = s.node.Shard(0).Dev.MemInUse()
				}) {
					t.Fatal("server closed early")
				}
				if open == 0 && mem == 0 {
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatal("dead client's session or device memory never reclaimed")
		})
	}
}

// TestRequestTimeout points a client at a listener that accepts and
// reads but never answers: with a request timeout set the round trip
// fails with a deadline error instead of blocking forever.
func TestRequestTimeout(t *testing.T) {
	ln, err := transport.ListenAddr("tcp://127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a daemon that went out to lunch
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := DialOptions(ln.Addr(), Options{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}, 0)
	if err == nil {
		t.Fatal("request against a mute daemon succeeded")
	}
	if !strings.Contains(err.Error(), "no response within") {
		t.Fatalf("got %v, want request-timeout error", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
	c.Close() // unblocks the mute server's read loop
	wg.Wait()
}

// TestIdleClientOutlivesTimeout: a round trip sets the connection's
// deadline and leaves it in force, so after idling past Timeout a client
// holds an expired deadline — its next trip must replace it before any
// I/O, not fail on it.
func TestIdleClientOutlivesTimeout(t *testing.T) {
	s := startServerOn(t, ServerConfig{Listen: []string{"tcp://127.0.0.1:0"}, Functional: true})
	const timeout = 250 * time.Millisecond
	c, err := DialOptions(s.Addr(), Options{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 256
	want := vecaddCycle(t, c, n, 0)
	time.Sleep(timeout + timeout/2)
	if got := vecaddCycle(t, c, n, 0); string(got) != string(want) {
		t.Fatal("the cycle after an idle spell differs from the first")
	}
}

// TestInprocTransport exercises the in-process transport end to end:
// same daemon, no socket files involved.
func TestInprocTransport(t *testing.T) {
	s := startServerOn(t, ServerConfig{Listen: []string{"inproc://daemon-test"}, Functional: true})
	c, err := DialOptions(s.Addr(), Options{ShmDir: s.cfg.ShmDir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 256
	out := vecaddCycle(t, c, n, 0)
	res := cuda.Float32s(byteMem(out), 0, n)
	for i := 0; i < n; i++ {
		if res[i] != float32(i)+0.5 {
			t.Fatalf("out[%d] = %g", i, res[i])
		}
	}
}

// TestCloseWithFrameParkedAtBarrier shuts a daemon down while one client
// sits at a strict two-party STR barrier no peer will ever complete: on
// either front-end Close must return, the client's call with it, and the
// session's device memory, placement and segment be released.
func TestCloseWithFrameParkedAtBarrier(t *testing.T) {
	for _, scheme := range []string{"unix", "ring"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewServer(ServerConfig{
				Listen:  []string{scheme + "://" + tempSocket(t)},
				ShmDir:  dir,
				Parties: 2, Functional: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			c, err := DialOptions(s.Addr(), Options{ShmDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}, 0)
			if err != nil {
				t.Fatal(err)
			}
			parked := make(chan error, 1)
			go func() { parked <- sess.Start() }()
			// REQ and STR are the two requests gvm has seen once the STR is in;
			// the probe then orders us behind the owner pass that parked it.
			for mgr := s.node.Shard(0).Mgr; gvmCount(t, s.cfg.Metrics, mgr, "gvm_requests_total") < 2; {
				time.Sleep(time.Millisecond)
			}
			s.submitProbe(0, func() {})
			// A scrape after Close would read the unmapped ring doorbell, so
			// the check below reads the live series; this scrape proves the
			// manager registered it, and that the REQ's session is open.
			if open := gvmCount(t, s.cfg.Metrics, s.node.Shard(0).Mgr, "gvm_open_sessions"); open != 1 {
				t.Fatalf("gpu 0 holds %d open sessions before Close, want 1", open)
			}
			openSessions := s.cfg.Metrics.Gauge("gvm_open_sessions", "", metrics.L("gpu", "0"))

			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close still hangs after 2 s with a frame parked at the barrier")
			}
			select {
			case err := <-parked:
				if err == nil {
					t.Error("the parked STR was acknowledged")
				}
			case <-time.After(2 * time.Second):
				t.Error("the client's parked STR never returned")
			}
			if open := placedSessions(s); open != 0 {
				t.Errorf("%d sessions still placed", open)
			}
			sh := s.node.Shard(0)
			if open, inUse, reserved := openSessions.Value(), sh.Dev.MemInUse(), sh.Dev.MemReserved(); open != 0 || inUse != 0 || reserved != 0 {
				t.Errorf("gpu 0: %d open sessions, %d bytes in use, %d reserved", open, inUse, reserved)
			}
			if segs := ringSegments(t, dir); len(segs) != 0 {
				t.Errorf("segments left: %v", segs)
			}
		})
	}
}
