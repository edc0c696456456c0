package transport

import (
	"encoding/json"
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
//	      to the surviving node.
//
// MIG/ADP reuse PR9's ExtractSession/AdoptSession machinery one level
// up: intra-node failover moves a session between shards behind one
// dispatcher; these verbs move it between dispatchers. Where the session
// stood in its cycle travels inside the gvm state (done, rerun): the
// dispatcher keeps none of its own.

// MigBlob is the cross-node migration payload: the serialized gvm
// session state plus everything the adopting node needs that cannot
// ride inside it — the workload reference and rank (kernel builders are
// closures; the target rebuilds the spec from its own registry) and the
// staging footprint for placement.
type MigBlob struct {
	Ref      workloads.Ref   `json:"ref"`
	Rank     int             `json:"rank"`
	InBytes  int64           `json:"in_bytes"`
	OutBytes int64           `json:"out_bytes"`
	Ext      json.RawMessage `json:"ext"`
}

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
// the serialized MigBlob. The session leaves this node entirely: it is
// unpublished from the dispatcher, its plane closed, its placement
// reservation released. The router must send MIG on the session's own
// (sticky) connection — the ownership check holds like any other verb, and
// with it the rule that a ring session takes nothing but a lone RLS over the
// socket: its mapped segment names this node's doorbells and could not follow
// anyway.
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
	extB, err := ext.Encode()
	if err == nil {
		var blob []byte
		blob, err = json.Marshal(MigBlob{
			Ref: s.ref, Rank: s.rank,
			InBytes: s.inB, OutBytes: s.outB,
			Ext: extB,
		})
		if err == nil {
			// Point of no return: the session has left this node. The
			// sticky connection stays up (the router owns its lifetime)
			// but the id no longer resolves here. ExtractSession quiesced
			// the stream and dropped the gvm session, so nothing references
			// a mapped plane's staging.
			cs.dropOwned(s.id)
			d.retire(s)
			if d.cfg.Log != nil {
				d.cfg.Log.Info("session extracted for cross-node migration",
					"session", s.id, "gpu", from, "bytes", ext.Bytes())
			}
			return &Response{Status: "ACK", Session: s.id, Data: blob}, true
		}
	}
	// Serialization failed: put the session back so it keeps serving.
	if _, aerr := d.adopt(s, ext, from, submit); aerr == errShutdown {
		return nil, false
	} else if aerr != nil {
		return errResp(fmt.Errorf("transport: session %d stranded: encode: %v; re-adopt on gpu %d: %v", s.id, err, from, aerr)), true
	}
	return errResp(fmt.Errorf("transport: MIG encode session %d: %w", s.id, err)), true
}

// serveADP adopts a MIG blob under a freshly minted local session id
// (the source node's striped ids can collide with live local ones) and
// answers like a REQ: the new id, the inline plane, and the staging
// sizes. The adopting connection becomes the session's owner — the
// router sends ADP as the first frame on the session's new sticky
// connection.
func (d *Dispatcher) serveADP(req *Request, cs *ConnState, submit ShardSubmitter) (*Response, bool) {
	if len(req.Data) == 0 {
		return errResp(errors.New("transport: ADP needs a migration blob")), true
	}
	var blob MigBlob
	if err := json.Unmarshal(req.Data, &blob); err != nil {
		return errResp(fmt.Errorf("transport: ADP decode: %w", err)), true
	}
	ext, err := gvm.DecodeExtracted(blob.Ext)
	if err != nil {
		return errResp(err), true
	}
	w, err := workloads.FromRef(blob.Ref)
	if err != nil {
		return errResp(err), true
	}
	spec := w.Spec(blob.Rank)
	ext.Spec = spec
	srcID := ext.ID

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
		ref: blob.Ref, rank: blob.Rank,
	}
	if !d.onShard(submit, shard, func(*sim.Proc) { s.id = mgr.MintSessionID() }) {
		d.cfg.Node.Release(shard, spec.InBytes, spec.OutBytes)
		return nil, false
	}
	ext.SetID(s.id)
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
			"session", s.id, "source-session", srcID, "gpu", shard)
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
