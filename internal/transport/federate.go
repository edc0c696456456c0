package transport

import (
	"errors"
	"fmt"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

// Federation verbs: the daemon-side half of the gvmfed protocol.
//
//	STA — capacity/health advertisement: the router polls it to drive
//	      node-level placement (the same JSON as the -addr-file v2
//	      trailer, but live).
//	MIG — extract one session for cross-node migration: quiesce,
//	      snapshot, serialize, and forget it. Sent by the router on the
//	      session's own sticky connection when the node is draining.
//	ADP — adopt a MIG blob under a freshly minted local id: the inverse
//	      end, sent by the router on the session's new sticky connection
//	      to the surviving node. Shaped like a REQ (reference, rank and
//	      scheduling options in REQ's fields), its Data is the blob.
//
// MIG/ADP reuse PR9's ExtractSession/AdoptSession machinery one level
// up: intra-node failover moves a session between shards behind one
// dispatcher; these verbs move it between dispatchers. Where the session
// stood in its cycle is gvm state: the dispatcher keeps none of its own.

// migFrameRoom is the part of a frame MIG keeps free beside the blob, for
// the other fields of its answer and of the router's ADP: verb, workload
// reference, rank and scheduling options.
const migFrameRoom = 4 << 10

// serveSTA answers the node's current capacity/health advertisement.
// Connection-goroutine side, no owner submit: every input is an atomic
// gauge or quantile read.
func (d *Dispatcher) serveSTA() *Response {
	ad, err := node.MarshalAd(d.cfg.Node.Advertise())
	if err != nil {
		return errResp(err)
	}
	return &Response{Status: "ACK", Data: ad}
}

// serveMIG extracts a session for cross-node migration and answers with
// the serialized session (gvm.ExtractedSession.Encode). The session leaves
// this node entirely: it is unpublished from the dispatcher, its plane
// closed, its placement reservation released. The router must send MIG on
// the session's own (sticky) connection — the ownership check holds like
// any other verb, and with it the rule that a ring session takes nothing
// but a lone RLS over the socket: its mapped segment names this node's
// doorbells and could not follow anyway. A blob no frame can carry — the
// answer here, the router's ADP next — is refused, and the session stays.
func (d *Dispatcher) serveMIG(req *Request, cs *ConnState, submit ShardSubmitter) (*Response, bool) {
	s, err := d.lookup(req.Session, cs)
	if err != nil {
		return errResp(err), true
	}
	s.migMu.Lock()
	defer s.migMu.Unlock()
	from, ext, err := d.extract(s, submit)
	defer s.settle()
	switch {
	case err == errShutdown:
		return nil, false
	case err != nil:
		return errResp(fmt.Errorf("transport: MIG extract session %d from gpu %d: %w", s.id, from, err)), true
	case ext == nil:
		return errResp(fmt.Errorf("transport: session %d is closed", s.id)), true
	}
	blob := ext.Encode()
	if len(blob) > MaxFrame-migFrameRoom {
		// Too large to travel: put the session back so it keeps serving.
		err = fmt.Errorf("transport: MIG session %d: its %d-byte blob does not fit a %d-byte frame", s.id, len(blob), MaxFrame)
		if _, aerr := d.adopt(s, ext, from, submit); aerr == errShutdown {
			return nil, false
		} else if aerr != nil {
			err = fmt.Errorf("%v; re-adopt on gpu %d: %v", err, from, aerr)
		}
		return errResp(err), true
	}
	// Point of no return: the session has left this node. The sticky
	// connection stays up (the router owns its lifetime) but the id no
	// longer resolves here. ExtractSession quiesced the stream and dropped
	// the gvm session, so nothing references a mapped plane's staging.
	cs.dropOwned(s.id)
	d.retire(s)
	if d.cfg.Log != nil {
		d.cfg.Log.Info("session extracted for cross-node migration",
			"session", s.id, "gpu", from, "bytes", ext.Bytes())
	}
	return &Response{Status: "ACK", Session: s.id, Data: blob}, true
}

// serveADP adopts a MIG blob under a freshly minted local session id
// (the source node's striped ids can collide with live local ones) and
// answers like a REQ: the new id, the inline plane, and the staging
// sizes. The adopting connection becomes the session's owner — the
// router sends ADP as the first frame on the session's new sticky
// connection.
func (d *Dispatcher) serveADP(req *Request, cs *ConnState, submit ShardSubmitter) (*Response, bool) {
	if req.Ref == nil {
		return errResp(errors.New("transport: ADP needs a workload reference")), true
	}
	w, err := workloads.FromRef(*req.Ref)
	if err != nil {
		return errResp(err), true
	}
	ext, err := gvm.DecodeExtracted(req.Data)
	if err != nil {
		return errResp(err), true
	}
	spec := w.Spec(req.Rank)
	ext.Request = gvm.Request{Spec: spec, MemQuota: req.MemQuota, Priority: req.Priority, Weight: req.Weight}

	// Two-level placement, lower level: the router picked this node, the
	// node's own policy picks the shard.
	shard, err := d.cfg.Node.Place(spec.InBytes, spec.OutBytes)
	if err != nil {
		return errResp(err), true
	}
	mgr := d.cfg.Node.Shard(shard).Mgr
	s := &hostSession{
		shard: shard,
		inB:   spec.InBytes, outB: spec.OutBytes,
		owner: cs, d: d, plane: hostPlane{kind: PlaneInline},
		ref: *req.Ref, rank: req.Rank,
	}
	if !d.onShard(submit, shard, func(*sim.Proc) { s.id = mgr.MintSessionID() }) {
		d.cfg.Node.Release(shard, spec.InBytes, spec.OutBytes)
		return nil, false
	}
	ext.ID = s.id
	vms, aerr := d.adopt(s, ext, shard, submit)
	if aerr != nil {
		d.cfg.Node.Release(shard, spec.InBytes, spec.OutBytes)
		if aerr == errShutdown {
			return nil, false
		}
		r := errResp(fmt.Errorf("transport: ADP adopt on gpu %d: %w", shard, aerr))
		r.VirtualMS = vms
		return r, true
	}
	d.publish(s, cs)
	if d.cfg.Log != nil {
		d.cfg.Log.Info("session adopted from cross-node migration",
			"session", s.id, "gpu", shard)
	}
	return &Response{
		Status:    "ACK",
		Session:   s.id,
		Plane:     PlaneInline,
		InBytes:   spec.InBytes,
		OutBytes:  spec.OutBytes,
		VirtualMS: vms,
	}, true
}
