package fed

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

func errResp(err error) *transport.Response {
	return &transport.Response{Status: "ERR", Err: err.Error()}
}

// retryableResp marks an error the client should replay after backoff —
// the session is mid-move between nodes, or just landed on a fresh one.
func retryableResp(msg string) *transport.Response {
	return &transport.Response{Status: "ERR", Err: gvm.Retryable(msg)}
}

// lostSession reports whether a backend response means the node no
// longer holds the session's state — it restarted, or tore the session
// down mid-shutdown between our frames. Either way the state is gone
// and recovery is the same as a dropped connection: re-create on a
// survivor and let the client replay.
func lostSession(resp *transport.Response) bool {
	return resp.Status == "ERR" &&
		(strings.Contains(resp.Err, "unknown session") ||
			strings.Contains(resp.Err, "is closed"))
}

func (r *Router) accept(ln transport.Listener) {
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Client handlers are not tracked by wg — one may sit in a slow
		// backend round trip, and Close must not wait for it.
		go r.serveConn(conn)
	}
}

// serveConn runs one client connection's request loop.
func (r *Router) serveConn(nc net.Conn) {
	if err := transport.ReadPreamble(nc); err != nil {
		if errors.Is(err, io.EOF) {
			nc.Close()
		} else {
			transport.RejectConn(nc)
		}
		return
	}
	conn := transport.NewConn(nc)
	cc := &clientConn{}
	defer func() {
		conn.Close()
		conn.Release()
		r.hangUp(cc)
	}()
	for {
		req, err := conn.ReadRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) && r.cfg.Log != nil {
				r.cfg.Log.Debug("client read", "err", err)
			}
			return
		}
		// A frame's response is usually its session's sticky backend
		// connection's retained one (trip: "valid until the next trip"), and
		// the poller's background evacuate() migrates sessions concurrently —
		// its MIG trip reads into that same response and buffer, and its
		// teardown hands the buffer back to the pool. serveREQ and serveFrame
		// therefore return with the session still LOCKED; the lock drops only
		// after the response bytes have left for the client.
		var resp *transport.Response
		var locked *fedSession
		if req.Verb == "REQ" {
			resp, locked = r.serveREQ(req, cc)
		} else {
			resp, locked = r.serveFrame(req, cc)
		}
		werr := conn.WriteResponse(resp)
		if locked != nil {
			locked.mu.Unlock()
		}
		if werr != nil {
			return
		}
	}
}

// hangUp releases every session a disconnected client left open:
// closing each sticky backend connection makes the backend daemon
// release the real session exactly as if the client had dialed it
// directly.
func (r *Router) hangUp(cc *clientConn) {
	for _, vid := range cc.owned {
		r.mu.Lock()
		s := r.sessions[vid]
		r.mu.Unlock()
		if s == nil || s.owner != cc {
			continue
		}
		s.mu.Lock()
		r.unregisterLocked(s, true)
		s.mu.Unlock()
	}
	cc.owned = nil
}

// serveREQ places a new session at the node level and opens its sticky
// backend connection. The data plane is forced inline: the client's
// payloads must travel through the router, and a shm or ring segment
// names a path on the backend's machine that the client cannot map. Like
// serveFrame, it returns the opened session still LOCKED.
func (r *Router) serveREQ(req *transport.Request, cc *clientConn) (*transport.Response, *fedSession) {
	if req.Ref == nil {
		return errResp(errors.New("fed: REQ needs a workload reference")), nil
	}
	w, err := workloads.FromRef(*req.Ref)
	if err != nil {
		return errResp(err), nil
	}
	spec := w.Spec(req.Rank)
	req.Plane = transport.PlaneInline
	b, conn, resp, err := r.openOn(req, spec.InBytes+spec.OutBytes)
	if err != nil {
		return errResp(fmt.Errorf("fed: %v", err)), nil
	}
	if conn == nil {
		// The node's own admission said no; its error already names each
		// shard's health and headroom.
		return resp, nil
	}
	s := &fedSession{
		owner: cc,
		ref:   *req.Ref, rank: req.Rank,
		memQuota: req.MemQuota, priority: req.Priority, weight: req.Weight,
		inB: resp.InBytes, outB: resp.OutBytes,
		// A fresh session needs no restaging: a direct gvmd computes on
		// zero-filled staging, and the router must be indistinguishable.
		// Only a dead-node re-creation clears this.
		staged: true,
	}
	s.mu.Lock()
	s.attachLocked(b, resp.Session, conn)
	vid := r.register(s)
	cc.owned = append(cc.owned, vid)
	if r.cfg.Log != nil {
		r.cfg.Log.Debug("session placed",
			"vsession", vid, "node", b.idx, "backend-session", resp.Session)
	}
	resp.Session = vid
	return resp, s
}

// openOn is the one way a session gets a backend: place footprint at the
// node level, dial the chosen node and send fwd (a REQ or an ADP) as the
// first frame of what becomes the session's sticky connection. A node that
// cannot be dialed or drops the frame is marked dead and the next one
// tried. It returns the node's answer: with the open connection when the
// node said ACK (the caller attaches it and keeps the reservation), with
// conn == nil — connection closed, reservation returned — when the node
// refused (a refusal carries no Data, so it outlives its connection).
func (r *Router) openOn(fwd *transport.Request, footprint int64) (b *backend, conn *transport.Conn, resp *transport.Response, err error) {
	var lastErr error
	for attempt := 0; attempt <= len(r.backends); attempt++ {
		if b, err = r.place(footprint); err != nil {
			if lastErr != nil {
				err = fmt.Errorf("%v (last backend error: %v)", err, lastErr)
			}
			return nil, nil, resp, err
		}
		if conn, _, err = transport.Dial(b.addr); err == nil {
			start := time.Now()
			if resp, err = tripConn(conn, fwd); err == nil {
				r.met.lat(fwd.Verb).Observe(int64(time.Since(start)))
				if resp.Status == "ACK" {
					return b, conn, resp, nil
				}
			}
			conn.Close()
			conn.Release()
		}
		r.unplace(b, footprint)
		if err == nil {
			return b, nil, resp, nil // the node refused
		}
		r.markDead(b, err)
		lastErr = err
	}
	return nil, nil, resp, fmt.Errorf("every placement attempt failed: %v", lastErr)
}

// tripConn performs one round trip on a backend connection that is not
// (yet) a session's sticky one: openOn's first frame, the poller's STA.
func tripConn(conn *transport.Conn, req *transport.Request) (*transport.Response, error) {
	if err := conn.WriteRequest(req); err != nil {
		return nil, err
	}
	return conn.ReadResponse()
}

// trip performs one metered round trip on a session's sticky
// connection. Caller holds s.mu. The response is the connection's
// retained one, its Data in the connection's read buffer: valid until the
// next trip on this session.
func (r *Router) trip(s *fedSession, req *transport.Request) (*transport.Response, error) {
	start := time.Now()
	if err := s.conn.WriteRequest(req); err != nil {
		return nil, err
	}
	resp, err := s.conn.ReadResponse()
	if err != nil {
		return nil, err
	}
	r.met.lat(req.Verb).Observe(int64(time.Since(start)))
	return resp, nil
}

// needsStagedInput reports whether a verb reads the session's staged
// input (or results derived from it). After a dead-node re-creation the
// fresh backend session's staging is zeroed; serving these verbs before
// the client re-stages would silently compute on zeros.
func needsStagedInput(verb gvm.Verb) bool {
	return verb == gvm.STR || verb == gvm.STP || verb == gvm.RCV
}

// serveFrame proxies one frame — a session verb, or a BAT of one session's
// verbs: the daemon's own frame rule (transport.FrameSteps), so a malformed
// frame draws the error a direct connection would see — over the session's
// sticky backend connection. This is the warm hop: the ids rewritten in
// place in the decoded frame and in the node's answer, and the pooled
// zero-copy framing on both sides — no allocation.
//
// The returned session (when non-nil) is still LOCKED: the response may
// alias the sticky connection's read buffer, so the caller must write
// it to the client before unlocking, or a concurrent evacuation could
// overwrite or pool the buffer mid-write.
func (r *Router) serveFrame(req *transport.Request, cc *clientConn) (*transport.Response, *fedSession) {
	var buf [5]gvm.Verb // a frame has five steps at most; the backing stays on the stack
	vid, verbs, bat, err := transport.FrameSteps(req, buf[:0])
	if err != nil {
		return errResp(err), nil
	}
	s, err := r.lookup(vid, cc)
	if err != nil {
		return errResp(err), nil
	}
	s.mu.Lock()
	return r.forwardRun(s, req, verbs, bat), s
}

// forwardRun forwards a checked frame as it arrived — a BAT as a BAT, a
// lone verb as the bare verb frame, never a one-element BAT, so a
// non-pipelining client costs the backend what it would cost directly —
// and returns the node's answer under the session's virtual id. A frame
// the router cannot forward fails whole: every step answers the one error.
// Caller holds s.mu.
func (r *Router) forwardRun(s *fedSession, req *transport.Request, verbs []gvm.Verb, bat bool) *transport.Response {
	fail := func(resp *transport.Response) *transport.Response {
		resp.Session = s.vid
		if !bat {
			return resp
		}
		out := &transport.Response{Status: "ACK", Batch: make([]transport.Response, len(verbs))}
		for i := range out.Batch {
			out.Batch[i] = *resp
		}
		return out
	}
	if s.closed {
		return fail(errResp(fmt.Errorf("fed: session %d is closed", s.vid)))
	}
	if err := r.ensurePlacedLocked(s); err != nil {
		return fail(errResp(err))
	}
	if !s.staged && s.inB > 0 && verbs[0] != gvm.SND {
		for _, v := range verbs {
			if needsStagedInput(v) {
				return fail(retryableResp(fmt.Sprintf(
					"fed: session %d was re-created on node %d and its input is not restaged; re-send the cycle from SND",
					s.vid, s.b.idx)))
			}
		}
	}
	if !bat {
		req.Session = s.realID
	}
	for i := range req.Batch {
		req.Batch[i].Session = s.realID
	}
	resp, terr := r.trip(s, req)
	if terr != nil {
		r.markDead(s.b, terr)
		r.dropBackendLocked(s, true)
		return fail(retryableResp(fmt.Sprintf("fed: %s: node %d lost mid-frame: %v", req.Verb, s.b.idx, terr)))
	}
	// The node answered but no longer knows the session: it restarted or
	// tore the session down mid-shutdown between our frames. Same recovery
	// as a connection drop — re-create on the next attempt.
	lost := ""
	if lostSession(resp) {
		lost = resp.Err
	}
	for i := range resp.Batch {
		if lostSession(&resp.Batch[i]) {
			lost = resp.Batch[i].Err
		}
	}
	if lost != "" {
		node := s.b.idx
		r.dropBackendLocked(s, true)
		return fail(retryableResp(fmt.Sprintf("fed: %s: node %d dropped session state: %s", req.Verb, node, lost)))
	}
	if bat && resp.Status != "ACK" {
		return fail(&transport.Response{Status: resp.Status, Err: resp.Err})
	}
	if bat && len(resp.Batch) != len(verbs) {
		return fail(errResp(fmt.Errorf("fed: node %d returned %d responses for %d sub-requests", s.b.idx, len(resp.Batch), len(verbs))))
	}
	released, aliased := false, false
	for i := range verbs {
		step := resp // a lone verb's one step is the frame's answer
		if bat {
			step = &resp.Batch[i]
		}
		step.Session = s.vid
		aliased = aliased || len(step.Data) > 0
		if step.Status == "ACK" {
			switch verbs[i] {
			case gvm.SND:
				s.staged = true
			case gvm.RLS:
				released = true
			}
		}
	}
	if released {
		// A response still aliasing the sticky connection's read buffer is
		// on its way to the client: leave that buffer to the GC then, not
		// the pool.
		r.unregisterLocked(s, !aliased)
		s.owner.dropOwned(s.vid)
	}
	return resp
}
