package fed

import (
	"net"
	"testing"
	"time"

	"gpuvirt/internal/ipc"
	"gpuvirt/internal/transport"
)

// TestWarmProxyHopZeroAlloc asserts the warm-hop acceptance criterion:
// once a session's sticky backend connection is up, proxying a verb —
// client frame in, id rewrite, pooled zero-copy frame to the backend,
// response back with the id restored — allocates nothing in the router.
func TestWarmProxyHopZeroAlloc(t *testing.T) {
	r := startFed(t, time.Hour, ipc.ServerConfig{}).r
	// Hand-wire a session placed on the one backend to an in-memory echo
	// peer standing in for the backend daemon.
	routerEnd, backendEnd := net.Pipe()
	conn, peer := transport.NewConn(routerEnd), transport.NewConn(backendEnd)
	done, served := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { peer.Close(); peer.Release(); close(served) }()
		for {
			req, err := peer.ReadRequest()
			if err != nil {
				select {
				case <-done:
				default:
					t.Error(err)
				}
				return
			}
			// Respond with the request's payload aliasing the read buffer,
			// exactly as the daemon's zero-copy RCV path does.
			if err := peer.WriteResponse(&transport.Response{Status: "ACK", Session: req.Session, Data: req.Data}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	cs := &transport.ConnState{}
	s := &fedSession{vid: 1, owner: cs, staged: true, inB: 64 << 10, outB: 64 << 10}
	b, err := r.place(s.inB + s.outB)
	if err != nil {
		t.Fatal(err)
	}
	s.attachLocked(b, 42, conn)
	r.sessions[1] = s
	defer func() {
		// The session ends as a released one does: its sticky connection
		// and placement go, and the echo peer sees the pipe close.
		close(done)
		s.mu.Lock()
		r.unregisterLocked(s, true)
		s.mu.Unlock()
		<-served
	}()

	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	hop := func() {
		resp, locked := r.serveFrame(&transport.Request{Verb: "SND", Session: 1, Data: payload}, cs)
		if locked == nil {
			t.Fatal("hop did not return the locked session")
		}
		locked.mu.Unlock()
		if resp.Status != "ACK" || resp.Session != 1 || len(resp.Data) != len(payload) {
			t.Fatalf("hop came back %q session %d with %d bytes", resp.Status, resp.Session, len(resp.Data))
		}
	}
	for i := 0; i < 4; i++ {
		hop() // warm the framing pools and retained buffers
	}
	if allocs := testing.AllocsPerRun(50, hop); allocs > 0 {
		t.Fatalf("warm proxy hop allocates %.1f times per round trip, want 0", allocs)
	}
}
