package fed

import (
	"errors"
	"fmt"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/transport"
)

// Cross-node failover. Two paths, chosen by what is left of the source:
//
//   - migrateLocked — the source node is draining but alive: MIG on the
//     session's sticky connection extracts its full state (device
//     snapshot, staging, scheduling identity), ADP on a survivor adopts
//     it under a fresh local id, and the client's next verb lands on the
//     new node with everything intact. fed_migrated_bytes_total counts
//     the blobs.
//
//   - recreateLocked — the source node is dead, its state unrecoverable:
//     the router replays the session's recorded REQ on a survivor and
//     answers the client's in-flight verbs with retryable errors until
//     it re-stages. A pipelined client's replayed cycle starts with SND,
//     so the first retry already carries the input and the re-run is
//     byte-identical (cycles are deterministic).
//
// Both paths count in fed_failovers_total. Sessions are moved lazily on
// their next verb (ensurePlacedLocked) and eagerly by the poller's
// background evacuation when a node transitions to draining.

// ensurePlacedLocked makes sure the session has a live backend before a
// verb is forwarded: re-create it if its node died, migrate it off a
// draining node. Caller holds s.mu.
func (r *Router) ensurePlacedLocked(s *fedSession) error {
	if s.conn.Load() == nil || s.b.getState() == stateDead {
		return r.recreateLocked(s)
	}
	if s.b.getState() == stateDraining {
		if err := r.migrateLocked(s); err != nil {
			if s.conn.Load() == nil {
				return err // the move failed AND the session is gone
			}
			// Migration failed but the session still lives on the
			// draining source (e.g. no healthy target yet): keep serving
			// in place — draining is graceful, not gone.
			if r.cfg.Log != nil {
				r.cfg.Log.Warn("cross-node migration failed; serving on draining node",
					"vsession", s.vid, "node", s.b.idx, "err", err)
			}
		}
	}
	return nil
}

// recreateLocked replays the session's REQ on a surviving node after its
// backend died with the state. Caller holds s.mu.
func (r *Router) recreateLocked(s *fedSession) error {
	old := s.b
	r.dropBackendLocked(s, true)
	fwd := &transport.Request{
		Verb: "REQ", Ref: &s.ref, Rank: s.rank,
		Plane: transport.PlaneInline, Priority: s.priority, Weight: s.weight,
	}
	b, conn, resp, err := r.openOn(fwd, s.inB+s.outB)
	if err != nil {
		return errors.New(gvm.Retryable(fmt.Sprintf(
			"fed: session %d lost node %d and cannot be re-placed: %v", s.vid, old.idx, err)))
	}
	if conn == nil {
		return fmt.Errorf("fed: re-place session %d on node %d: %s", s.vid, b.idx, resp.Err)
	}
	s.attachLocked(b, resp.Session, conn)
	s.staged = false // the input died with the old node
	r.met.failovers.Inc()
	if r.cfg.Log != nil {
		r.cfg.Log.Info("session re-created after node death",
			"vsession", s.vid, "from-node", old.idx, "to-node", b.idx, "backend-session", resp.Session)
	}
	return nil
}

// migrateLocked live-migrates the session off its draining node:
// extract with MIG, re-place through the node-level placer, adopt with
// ADP. On success the virtual id is unchanged and staged state carries
// over — the client cannot tell. Caller holds s.mu.
func (r *Router) migrateLocked(s *fedSession) error {
	src := s.b
	footprint := s.inB + s.outB
	// Confirm a target exists BEFORE extracting: MIG removes the session
	// from the source, and a draining source cannot re-adopt it (its own
	// admission refuses placements). Better to keep serving in place
	// than to strand the state.
	if _, err := r.placer.Select(r.nodeLoads(), footprint); err != nil {
		return fmt.Errorf("fed: no target for migration: %v", err)
	}
	resp, terr := r.trip(s, &transport.Request{Verb: "MIG", Session: s.realID})
	if terr != nil {
		// The draining node died mid-extract; fall back to re-creation.
		r.markDead(src, terr)
		return r.recreateLocked(s)
	}
	if resp.Status != "ACK" {
		// e.g. a ring-plane session that cannot leave its node.
		return fmt.Errorf("fed: MIG session %d on node %d: %s", s.vid, src.idx, resp.Err)
	}
	// ADP is the session's REQ record with the blob as its Data. The blob
	// aliases the sticky connection's read buffer, so the source stays
	// attached until an adoption has sent it.
	adp := &transport.Request{
		Verb: "ADP", Ref: &s.ref, Rank: s.rank,
		Priority: s.priority, Weight: s.weight,
		Data: resp.Data,
	}
	// A node that refuses the adoption leaves the others to try.
	var lastErr error
	for attempt := 0; attempt <= len(r.backends); attempt++ {
		b, conn, aresp, err := r.openOn(adp, footprint)
		if err != nil {
			lastErr = err
			break
		}
		if conn == nil {
			lastErr = errors.New(aresp.Err)
			continue
		}
		r.dropBackendLocked(s, true)
		s.attachLocked(b, aresp.Session, conn)
		r.met.failovers.Inc()
		r.met.migratedBytes.Add(int64(len(adp.Data)))
		if r.cfg.Log != nil {
			r.cfg.Log.Info("session migrated across nodes",
				"vsession", s.vid, "from-node", src.idx, "to-node", b.idx,
				"backend-session", aresp.Session, "blob-bytes", len(adp.Data))
		}
		return nil
	}
	// Double fault: every target vanished between the pre-check and the
	// adopt. The extracted state cannot go back to the draining source
	// (its admission refuses), so the last resort is a bare re-creation —
	// the client re-stages and replays, losing only in-flight results.
	if err := r.recreateLocked(s); err != nil {
		return fmt.Errorf("fed: session %d stranded mid-migration (adopt: %v): %w", s.vid, lastErr, err)
	}
	return nil
}

// evacuate drains every session off a backend in the background,
// normally triggered by the poller seeing the node report itself
// unplaceable (whole-node SIGUSR1 drain). Verbs touching a session
// meanwhile migrate it themselves first — s.mu arbitrates.
func (r *Router) evacuate(b *backend) {
	r.mu.Lock()
	victims := make([]*fedSession, 0, len(r.sessions))
	for _, s := range r.sessions {
		victims = append(victims, s)
	}
	r.mu.Unlock()
	moved := 0
	for _, s := range victims {
		s.mu.Lock()
		if !s.closed && s.b == b && s.conn.Load() != nil {
			if err := r.ensurePlacedLocked(s); err == nil && s.b != b {
				moved++
			}
		}
		s.mu.Unlock()
	}
	if moved > 0 && r.cfg.Log != nil {
		r.cfg.Log.Info("background evacuation finished", "node", b.idx, "moved", moved)
	}
}
