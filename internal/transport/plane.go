package transport

import (
	"fmt"

	"gpuvirt/internal/shm"
)

// DataPlane is the client-side binding of one session's payload path:
// how SND input bytes reach the daemon and how RCV output bytes come
// back. The control plane (verb frames) is the same either way.
type DataPlane interface {
	Kind() string
	// StageIn makes data visible to the daemon ahead of SND: the shm
	// plane copies it into the shared segment, the inline plane attaches
	// it to the request frame. data may be nil in timing-only mode.
	StageIn(data []byte, req *Request) error
	// CollectOut recovers RCV results into buf: the shm plane reads the
	// segment, the inline plane copies out of the response frame. buf may
	// be nil in timing-only mode.
	CollectOut(buf []byte, resp *Response) error
	Close() error
}

// OpenPlane attaches the client side of the data plane a REQ response
// selected. shmDir must match the daemon's segment directory for the shm
// plane ("" = /dev/shm).
func OpenPlane(shmDir string, resp Response) (DataPlane, error) {
	switch resp.Plane {
	case PlaneShm:
		seg, err := shm.OpenFile(shmDir, resp.Segment)
		if err != nil {
			return nil, fmt.Errorf("transport: attach shm data plane: %w", err)
		}
		return &shmPlane{seg: seg, inBytes: resp.InBytes}, nil
	case PlaneInline:
		return inlinePlane{}, nil
	case PlaneRing:
		return openRingPlane(shmDir, resp)
	default:
		return nil, fmt.Errorf("transport: unknown data plane %q", resp.Plane)
	}
}

// shmPlane exchanges payloads through a file-backed shared-memory
// segment: input at offset 0, output at offset inBytes.
type shmPlane struct {
	seg     shm.Segment
	inBytes int64
}

func (p *shmPlane) Kind() string { return PlaneShm }

func (p *shmPlane) StageIn(data []byte, req *Request) error {
	if data == nil {
		return nil
	}
	return p.seg.WriteAt(data, 0)
}

func (p *shmPlane) CollectOut(buf []byte, resp *Response) error {
	if buf == nil {
		return nil
	}
	return p.seg.ReadAt(buf, p.inBytes)
}

func (p *shmPlane) Close() error { return p.seg.Close() }

// inlinePlane rides payloads inside the control frames; nothing to
// attach, nothing to clean up. One payload is bounded by MaxFrame.
type inlinePlane struct{}

func (inlinePlane) Kind() string { return PlaneInline }

func (inlinePlane) StageIn(data []byte, req *Request) error {
	req.Data = data
	return nil
}

func (inlinePlane) CollectOut(buf []byte, resp *Response) error {
	if buf == nil {
		return nil
	}
	if len(resp.Data) != len(buf) {
		return fmt.Errorf("transport: inline RCV carried %d bytes, want %d", len(resp.Data), len(buf))
	}
	copy(buf, resp.Data)
	return nil
}

func (inlinePlane) Close() error { return nil }

// HostPlane is the daemon-side half of a session's data plane.
type HostPlane interface {
	Kind() string
	// Segment names the shared-memory segment advertised to the client
	// ("" for the inline plane).
	Segment() string
	// Regions returns the client-visible input and output staging regions
	// of a mapped plane (shm, ring). The session's pinned staging is bound
	// onto them (hostSession.bindStaging), so SND and RCV move no bytes on
	// the daemon side. The inline plane has none: its payloads ride the
	// control frames and are copied through heap staging.
	Regions() (in, out []byte)
	// Close releases the plane. A mapped plane's Regions die with it, so
	// it runs only after the gvm session bound onto them is gone.
	Close() error
}

// NewHostPlane creates the daemon side of a shm or inline data plane
// (a ring plane carries its rings with it: RingHost.newPlane).
func NewHostPlane(kind, dir, name string, inBytes, outBytes int64) (HostPlane, error) {
	switch kind {
	case PlaneShm:
		size := inBytes + outBytes
		if size < 1 {
			size = 1
		}
		seg, err := shm.NewFile(dir, name, size)
		if err != nil {
			return nil, err
		}
		return &shmHostPlane{seg: seg, name: name, inBytes: inBytes, outBytes: outBytes}, nil
	case PlaneInline:
		return inlineHostPlane{}, nil
	default:
		return nil, fmt.Errorf("transport: unknown data plane %q (want %q or %q)", kind, PlaneShm, PlaneInline)
	}
}

// shmHostPlane is the ring plane's segment without the rings: input at
// offset 0, output at offset inBytes, nothing else.
type shmHostPlane struct {
	seg               shm.Segment
	name              string
	inBytes, outBytes int64
}

func (h *shmHostPlane) Kind() string    { return PlaneShm }
func (h *shmHostPlane) Segment() string { return h.name }

func (h *shmHostPlane) Regions() (in, out []byte) {
	b := h.seg.Bytes()
	return b[:h.inBytes:h.inBytes], b[h.inBytes : h.inBytes+h.outBytes]
}

func (h *shmHostPlane) Close() error { return h.seg.Close() }

type inlineHostPlane struct{}

func (inlineHostPlane) Kind() string              { return PlaneInline }
func (inlineHostPlane) Segment() string           { return "" }
func (inlineHostPlane) Regions() (in, out []byte) { return nil, nil }
func (inlineHostPlane) Close() error              { return nil }
