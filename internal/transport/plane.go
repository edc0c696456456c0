package transport

import (
	"fmt"

	"gpuvirt/internal/shm"
)

// A session's data plane is how its SND input reaches the daemon and its RCV
// output comes back: a segment both processes map, or the control frames
// themselves. The mapped segment is one mechanism in two layouts — bare
// input|output for PlaneShm, a header and the session's rings ahead of the
// same two regions for PlaneRing — and each side of the wire holds it as one
// type, Plane on the client and hostPlane on the daemon: no segment is the
// inline plane, a ring is the ring plane. The kinds are told apart in each
// side's constructor and nowhere else.

// bareRegions are the staging regions of a segment that holds nothing else:
// input at offset 0, output at offset inB.
func bareRegions(seg shm.Segment, inB, outB int64) (in, out []byte, err error) {
	b := seg.Bytes()
	if inB < 0 || outB < 0 || inB+outB > int64(len(b)) {
		return nil, nil, fmt.Errorf("transport: a %d-byte segment cannot stage %d+%d bytes", len(b), inB, outB)
	}
	return b[:inB:inB], b[inB : inB+outB], nil
}

// Plane is the client side of one session's data plane.
type Plane struct {
	kind    string
	seg     shm.Segment // nil: the inline plane
	in, out []byte      // seg's staging regions
	// Ring is the session's carrier on the ring plane — every verb frame
	// travels through the segment's rings — and nil on the others, whose
	// frames take the client's connection.
	Ring *RingPlane
}

// OpenPlane attaches the client side of the data plane a REQ response
// selected. shmDir must match the daemon's segment directory for the mapped
// planes ("" = /dev/shm).
func OpenPlane(shmDir string, resp *Response) (*Plane, error) {
	p := &Plane{kind: resp.Plane}
	var err error
	switch resp.Plane {
	case PlaneInline:
	case PlaneShm:
		if p.seg, err = shm.OpenFile(shmDir, resp.Segment); err == nil {
			p.in, p.out, err = bareRegions(p.seg, resp.InBytes, resp.OutBytes)
		}
	case PlaneRing:
		if p.seg, err = shm.OpenFile(shmDir, resp.Segment); err == nil {
			if p.Ring, err = openRingPlane(shmDir, p.seg); err == nil {
				p.in, p.out = p.Ring.sr.In(), p.Ring.sr.Out()
			}
		}
	default:
		return nil, fmt.Errorf("transport: unknown data plane %q", resp.Plane)
	}
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("transport: attach %s data plane: %w", resp.Plane, err)
	}
	return p, nil
}

// Kind names the plane the session negotiated.
func (p *Plane) Kind() string { return p.kind }

// StageIn makes data visible to the daemon ahead of SND: a mapped plane
// copies it into the segment's input region — which the daemon bound as the
// session's pinned staging, so this memcpy is the whole host-side data path —
// and the inline plane attaches it to the request frame. data may be nil in
// timing-only mode.
func (p *Plane) StageIn(data []byte, req *Request) error {
	switch {
	case p.seg == nil:
		req.Data = data
	case data != nil:
		if len(data) != len(p.in) {
			return fmt.Errorf("transport: %s StageIn got %d bytes, staging holds %d", p.kind, len(data), len(p.in))
		}
		copy(p.in, data)
	}
	return nil
}

// CollectOut recovers RCV results into buf: out of the segment's output
// region, or for the inline plane out of the response frame. buf may be nil
// in timing-only mode.
func (p *Plane) CollectOut(buf []byte, resp *Response) error {
	if buf == nil {
		return nil
	}
	src := p.out
	if p.seg == nil {
		src = resp.Data
	}
	if len(src) != len(buf) {
		return fmt.Errorf("transport: %s RCV carried %d bytes, want %d", p.kind, len(src), len(buf))
	}
	copy(buf, src)
	return nil
}

// Close detaches the plane from the daemon's segment.
func (p *Plane) Close() error {
	if p.seg == nil {
		return nil
	}
	var err error
	if p.Ring != nil {
		err = p.Ring.doorSeg.Close()
	}
	if cerr := p.seg.Close(); err == nil {
		err = cerr
	}
	return err
}

// hostPlane is the daemon side of one session's data plane. A mapped plane's
// regions are the session's pinned staging (hostSession.bindStaging), so SND
// and RCV move no bytes on this side; the inline plane's payloads ride the
// control frames and are copied through heap staging, which in/out then hold.
type hostPlane struct {
	kind    string
	size    int64        // bytes of segment the kind lays out, 0 for the inline plane
	name    string       // the segment file advertised to the client
	seg     shm.Segment  // nil: the inline plane
	in, out []byte       // the session's pinned staging, guarded by hostSession.mu
	ring    *ringSession // non-nil: the ring plane, seg carries the session's rings
}

// newHostPlane checks that the daemon serves plane kind and sizes its segment
// for a session staging inB+outB bytes. The plane comes back unmapped: REQ
// refuses a kind before it places anything, and a segment is created only
// for a session that opened (create).
func newHostPlane(kind string, rings *RingHost, inB, outB int64) (hostPlane, error) {
	switch kind {
	case PlaneInline:
		return hostPlane{kind: kind}, nil
	case PlaneShm:
		return hostPlane{kind: kind, size: max(1, inB+outB)}, nil
	case PlaneRing:
		if rings == nil {
			return hostPlane{}, fmt.Errorf("transport: data plane %q needs a ring:// listener, and this daemon has none (want %q or %q)", kind, PlaneShm, PlaneInline)
		}
		return hostPlane{kind: kind, size: shm.RingSegmentSize(shm.DefaultRingConfig(), inB, outB), ring: &ringSession{rh: rings}}, nil
	}
	return hostPlane{}, fmt.Errorf("transport: unknown data plane %q (want %q, %q or %q)", kind, PlaneShm, PlaneInline, PlaneRing)
}

// create maps host's segment in dir under name — nothing for the inline
// plane. A ring session joins its shard's sweep when its staging is bound
// (hostSession.bindStaging).
func (pl *hostPlane) create(dir, name string, host *hostSession) error {
	if pl.size == 0 {
		return nil
	}
	seg, err := shm.NewFile(dir, name, pl.size)
	if err != nil {
		return err
	}
	if rs := pl.ring; rs != nil {
		rs.host, rs.deliver = host, rs.finish
		if rs.sr, err = shm.InitSessionRing(seg, shm.DefaultRingConfig(), host.inB, host.outB, rs.rh.doorName, uint32(host.shard*shm.DoorStride)); err == nil {
			pl.in, pl.out = rs.sr.In(), rs.sr.Out()
		}
	} else {
		pl.in, pl.out, err = bareRegions(seg, host.inB, host.outB)
	}
	if err != nil {
		seg.Close()
		return err
	}
	pl.name, pl.seg = name, seg
	return nil
}

// Close releases the plane; its regions die with it, so it runs only after
// the gvm session bound onto them is gone. A ring segment on a shard's sweep
// is unmapped by that sweep — the one ending the turn that retired it —
// race-free with the sweep that reads its rings (ringSession.retire); any
// other by the caller.
func (pl *hostPlane) Close() error {
	switch {
	case pl.seg == nil:
		return nil
	case pl.ring != nil:
		pl.ring.retire()
		return nil
	}
	return pl.seg.Close()
}
