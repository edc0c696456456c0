package transport

import (
	"fmt"

	"gpuvirt/internal/node"
)

// Federation verbs: the daemon-side half of the gvmfed protocol.
//
//	STA — load report: the node's shards folded into one node-level
//	      node.Load, answered as one binary record (node.AppendLoad); the
//	      router polls it to drive node-level placement.
//	MIG — extract one session for cross-node migration: quiesce,
//	      snapshot, serialize, and forget it. Sent by the router on the
//	      session's own sticky connection when the node is draining.
//	ADP — adopt a MIG blob: the inverse end, sent by the router on the
//	      session's new sticky connection to the surviving node. It is a
//	      REQ (reference, rank and scheduling options in REQ's fields)
//	      whose Data is the blob, and serveREQ serves it: same placement,
//	      same owner turn, AdoptSession where a REQ calls OpenSession,
//	      and AdoptSession mints the session a local id.
//
// MIG/ADP reuse the ExtractSession/AdoptSession machinery one level up:
// intra-node failover moves a session between shards behind one
// dispatcher; these verbs move it between dispatchers. Where the session
// stood in its cycle is gvm state: the dispatcher keeps none of its own.

// migFrameRoom is the part of a frame MIG keeps free beside the blob, for
// the other fields of its answer and of the router's ADP: verb, workload
// reference, rank and scheduling options.
const migFrameRoom = 4 << 10

// serveSTA answers the node's current load report. Connection-goroutine
// side, no owner submit: every input is an atomic gauge or quantile read.
func (d *Dispatcher) serveSTA() *Response {
	return &Response{Status: "ACK", Data: node.AppendLoad(nil, d.cfg.Node.NodeLoad())}
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
		if aerr := d.adopt(s, ext, from, submit); aerr == errShutdown {
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
	d.retire(s)
	if d.cfg.Log != nil {
		d.cfg.Log.Info("session extracted for cross-node migration",
			"session", s.id, "gpu", from, "bytes", len(blob))
	}
	return &Response{Status: "ACK", Session: s.id, Data: blob}, true
}
