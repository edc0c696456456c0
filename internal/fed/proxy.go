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

func errResp(err error) transport.Response {
	return transport.Response{Status: "ERR", Err: err.Error()}
}

// retryableResp marks an error the client should replay after backoff —
// the session is mid-move between nodes, or just landed on a fresh one.
func retryableResp(msg string) transport.Response {
	return transport.Response{Status: "ERR", Err: gvm.Retryable(msg)}
}

// lostSession reports whether a backend response means the node no
// longer holds the session's state — it restarted, or tore the session
// down mid-shutdown between our frames. Either way the state is gone
// and recovery is the same as a dropped connection: re-create on a
// survivor and let the client replay.
func lostSession(resp transport.Response) bool {
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
	cc := &clientConn{conn: conn}
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
		// Session verb responses can alias a sticky backend connection's
		// pooled read buffer (trip: "valid until the next trip"), and the
		// poller's background evacuate() migrates sessions concurrently —
		// its MIG trip reads into that same buffer and its teardown hands
		// the buffer back to the pool. The handlers therefore return with
		// the involved sessions still LOCKED; the locks drop only after
		// the response bytes have left for the client.
		var resp transport.Response
		var locked *fedSession
		var lockedMany []*fedSession
		switch req.Verb {
		case "REQ":
			resp = r.serveREQ(req, cc)
		case "BAT":
			resp, lockedMany = r.serveBAT(req, cc)
		case "SND", "STR", "STP", "RCV", "RLS", "SUS", "RES":
			resp, locked = r.serveVerb(req, cc)
		default:
			resp = errResp(fmt.Errorf("fed: unknown verb %q", req.Verb))
		}
		werr := conn.WriteResponse(resp)
		if locked != nil {
			locked.mu.Unlock()
		}
		for _, s := range lockedMany {
			s.mu.Unlock()
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
// names a path on the backend's machine that the client cannot map.
func (r *Router) serveREQ(req transport.Request, cc *clientConn) transport.Response {
	if req.Ref == nil {
		return errResp(errors.New("fed: REQ needs a workload reference"))
	}
	w, err := workloads.FromRef(*req.Ref)
	if err != nil {
		return errResp(err)
	}
	spec := w.Spec(req.Rank)
	footprint := spec.InBytes + spec.OutBytes
	fwd := req
	fwd.Plane = transport.PlaneInline
	var lastErr error
	for attempt := 0; attempt <= len(r.backends); attempt++ {
		b, perr := r.place(footprint)
		if perr != nil {
			if lastErr != nil {
				perr = fmt.Errorf("%v (last backend error: %v)", perr, lastErr)
			}
			return errResp(fmt.Errorf("fed: %v", perr))
		}
		conn, nc, derr := r.dialBackend(b)
		if derr != nil {
			r.unplace(b, footprint)
			r.markDead(b, derr)
			lastErr = derr
			continue
		}
		start := time.Now()
		resp, terr := tripConn(conn, fwd)
		if terr != nil {
			nc.Close()
			conn.Release()
			r.unplace(b, footprint)
			r.markDead(b, terr)
			lastErr = terr
			continue
		}
		r.met.lat("REQ").Observe(int64(time.Since(start)))
		if resp.Status != "ACK" {
			// The node's own admission said no; its error already names
			// each shard's health and headroom.
			nc.Close()
			conn.Release()
			r.unplace(b, footprint)
			return resp
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
		if len(resp.Data) > 0 {
			// Once the session is registered the background evacuation can
			// trip on this connection; don't let the response alias its
			// read buffer past the unlock below.
			resp.Data = append([]byte(nil), resp.Data...)
		}
		s.mu.Lock()
		s.attachLocked(b, resp.Session, conn, nc)
		vid := r.register(s)
		s.mu.Unlock()
		cc.owned = append(cc.owned, vid)
		if r.cfg.Log != nil {
			r.cfg.Log.Debug("session placed",
				"vsession", vid, "node", b.idx, "backend-session", resp.Session, "policy", r.placer.Policy())
		}
		resp.Session = vid
		return resp
	}
	return errResp(fmt.Errorf("fed: REQ: every placement attempt failed: %v", lastErr))
}

// tripConn performs one unmetered round trip on a backend connection
// (REQ/ADP setup hops, before the session has a sticky connection).
func tripConn(conn *transport.Conn, req transport.Request) (transport.Response, error) {
	if err := conn.WriteRequest(req); err != nil {
		return transport.Response{}, err
	}
	return conn.ReadResponse()
}

// trip performs one metered round trip on a session's sticky
// connection. Caller holds s.mu. The response's Data aliases the
// connection's read buffer: valid until the next trip on this session.
func (r *Router) trip(s *fedSession, req transport.Request) (transport.Response, error) {
	start := time.Now()
	if err := s.conn.WriteRequest(req); err != nil {
		return transport.Response{}, err
	}
	resp, err := s.conn.ReadResponse()
	if err != nil {
		return transport.Response{}, err
	}
	r.met.lat(req.Verb).Observe(int64(time.Since(start)))
	return resp, nil
}

// needsStagedInput reports whether a verb reads the session's staged
// input (or results derived from it). After a dead-node re-creation the
// fresh backend session's staging is zeroed; serving these verbs before
// the client re-stages would silently compute on zeros.
func needsStagedInput(verb string) bool {
	return verb == "STR" || verb == "STP" || verb == "RCV"
}

// serveVerb proxies one lone session verb over the session's sticky
// backend connection: the one-step case of forwardRun. This is the warm
// hop: a struct copy, two id rewrites, and the pooled zero-copy framing on
// both sides — no allocation.
//
// The returned session (when non-nil) is still LOCKED: the response may
// alias the sticky connection's read buffer, so the caller must write
// it to the client before unlocking, or a concurrent evacuation could
// overwrite or pool the buffer mid-write.
func (r *Router) serveVerb(req transport.Request, cc *clientConn) (transport.Response, *fedSession) {
	s, err := r.lookup(req.Session, cc)
	if err != nil {
		return errResp(err), nil
	}
	s.mu.Lock()
	var out [1]transport.Response
	r.forwardRun(s, false, []transport.Request{req}, out[:], false)
	return out[0], s
}

// serveBAT proxies a pipelined batch: it partitions the sub-requests
// into contiguous same-session runs, forwards each run as a BAT on that
// session's sticky connection, and merges the sub-responses back in
// order. Mirroring the daemon, the first failing sub-request stops the
// batch — later runs answer "skipped".
//
// The returned sessions are still LOCKED (same contract as serveVerb):
// the merged responses alias their sticky connections' read buffers, so
// the caller unlocks only after the client write.
func (r *Router) serveBAT(req transport.Request, cc *clientConn) (transport.Response, []*fedSession) {
	if len(req.Batch) == 0 {
		return errResp(errors.New("fed: empty BAT")), nil
	}
	type run struct {
		s          *fedSession
		start, end int // [start,end) in req.Batch
	}
	var runs []run
	var uniq []*fedSession
	lastRank := make(map[int]int, 2)
	for i := range req.Batch {
		sub := &req.Batch[i]
		// The daemon's own rule, so a malformed batch draws the error a
		// direct connection would see.
		rank, err := transport.BatchStepRank(sub, lastRank[sub.Session])
		if err != nil {
			return errResp(err), nil
		}
		s, err := r.lookup(sub.Session, cc)
		if err != nil {
			return errResp(err), nil
		}
		if lastRank[sub.Session] == 0 {
			uniq = append(uniq, s)
		}
		lastRank[sub.Session] = rank
		if len(runs) == 0 || runs[len(runs)-1].s != s {
			runs = append(runs, run{s: s, start: i, end: i + 1})
		} else {
			runs[len(runs)-1].end = i + 1
		}
	}
	// Sessions belong to exactly one connection and a connection serves
	// one frame at a time, so no two in-flight batches share a session —
	// locking in batch order cannot deadlock. The locks are handed back
	// to the caller, which drops them after the client write.
	for _, s := range uniq {
		s.mu.Lock()
	}
	out := transport.Response{Status: "ACK", Batch: make([]transport.Response, len(req.Batch))}
	failed := false
	for ri := range runs {
		rn := runs[ri]
		outs := out.Batch[rn.start:rn.end]
		if failed {
			for i := range outs {
				outs[i] = transport.Response{Status: "ERR", Session: rn.s.vid,
					Err: "transport: skipped after earlier BAT failure"}
			}
			continue
		}
		// A later run on the same session reuses its sticky connection's
		// read buffer; this run's RCV data must be copied out first.
		recursLater := false
		for _, later := range runs[ri+1:] {
			if later.s == rn.s {
				recursLater = true
				break
			}
		}
		r.forwardRun(rn.s, true, req.Batch[rn.start:rn.end], outs, recursLater)
		for i := range outs {
			if outs[i].Status == "ERR" {
				failed = true
			}
		}
	}
	return out, uniq
}

// forwardRun proxies one contiguous same-session run of verbs, filling
// outs: a BAT's stretch travels as a BAT, a lone verb (bat == false, one
// step) as the bare verb frame it arrived as — never a one-element BAT, so
// a non-pipelining client costs the backend what it would cost directly.
// copyData detaches response payloads from the sticky connection's read
// buffer (a later run of the same frame reuses it). Caller holds s.mu.
func (r *Router) forwardRun(s *fedSession, bat bool, subs []transport.Request, outs []transport.Response, copyData bool) {
	fail := func(resp transport.Response) {
		resp.Session = s.vid
		for i := range outs {
			outs[i] = resp
		}
	}
	if s.closed {
		fail(errResp(fmt.Errorf("fed: session %d is closed", s.vid)))
		return
	}
	if err := r.ensurePlacedLocked(s); err != nil {
		fail(errResp(err))
		return
	}
	if !s.staged && s.inB > 0 && subs[0].Verb != "SND" {
		for i := range subs {
			if needsStagedInput(subs[i].Verb) {
				fail(retryableResp(fmt.Sprintf(
					"fed: session %d was re-created on node %d and its input is not restaged; re-send the cycle from SND",
					s.vid, s.b.idx)))
				return
			}
		}
	}
	fwd := subs[0]
	fwd.Session = s.realID
	if bat {
		fwd = transport.Request{Verb: "BAT", Batch: make([]transport.Request, len(subs))}
		for i := range subs {
			fwd.Batch[i] = subs[i]
			fwd.Batch[i].Session = s.realID
		}
	}
	resp, terr := r.trip(s, fwd)
	if terr != nil {
		r.markDead(s.b, terr)
		r.dropBackendLocked(s, true)
		fail(retryableResp(fmt.Sprintf("fed: %s: node %d lost mid-frame: %v", fwd.Verb, s.b.idx, terr)))
		return
	}
	got := resp.Batch
	if !bat {
		got = []transport.Response{resp}
	}
	// The node answered but no longer knows the session: it restarted or
	// tore the session down mid-shutdown between our frames. Same recovery
	// as a connection drop — re-create on the next attempt.
	lost := ""
	if lostSession(resp) {
		lost = resp.Err
	}
	for i := range got {
		if lostSession(got[i]) {
			lost = got[i].Err
		}
	}
	if lost != "" {
		node := s.b.idx
		r.dropBackendLocked(s, true)
		fail(retryableResp(fmt.Sprintf("fed: %s: node %d dropped session state: %s", fwd.Verb, node, lost)))
		return
	}
	if bat && resp.Status != "ACK" {
		fail(transport.Response{Status: resp.Status, Err: resp.Err})
		return
	}
	if len(got) != len(subs) {
		fail(errResp(fmt.Errorf("fed: node %d returned %d responses for %d sub-requests", s.b.idx, len(got), len(subs))))
		return
	}
	released, aliased := false, false
	for i := range subs {
		outs[i] = got[i]
		outs[i].Session = s.vid
		if len(outs[i].Data) > 0 {
			if copyData {
				outs[i].Data = append([]byte(nil), outs[i].Data...)
			} else {
				aliased = true
			}
		}
		if outs[i].Status == "ACK" {
			switch subs[i].Verb {
			case "SND":
				s.staged = true
			case "RLS":
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
}
