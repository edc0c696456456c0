package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sort"

	"gpuvirt/internal/workloads"
)

// Binary wire format. Each frame is a fixed header followed by a varint
// payload:
//
//	[0]    magic 0xB1
//	[1]    kind: 'Q' request, 'S' response
//	[2:6]  payload length, uint32 little-endian (<= MaxFrame)
//
// Request payload:  verb, session, rank, ref-present byte, then (if
// present) ref name + param count + sorted key/value pairs, then the
// data-plane name and the optional inline payload. A BAT container
// appends a sub-request count and each sub-request's fields (same
// layout, no nesting); single-verb frames carry no batch section at all,
// so they are byte-identical to the pre-batch format. A frame whose REQ
// carries extension fields (Priority, Weight) appends, after the batch
// section (count 0 when there is none), an extension-flags uvarint
// followed by one varint per set flag — bit 1 Priority, bit 2 Weight. Bit
// 0, a retired per-session memory quota, is refused like any unknown flag.
// Frames without extension fields omit the section entirely, keeping
// them byte-identical to the pre-extension format.
// Response payload: status, session, err, plane, segment, inBytes,
// outBytes, virtualMS (float64 bits, 8 bytes little-endian), optional
// inline payload, then the optional sub-response section mirroring the
// request's batch.
// Strings are uvarint length + bytes; integers are zigzag varints; byte
// payloads are a presence byte then uvarint length + bytes (nil and
// empty slices round-trip distinctly).
const (
	frameMagic   = 0xB1
	kindRequest  = 'Q'
	kindResponse = 'S'
	headerLen    = 6

	// MaxFrame bounds one frame's payload. Control-plane messages are
	// tiny, but the inline data plane rides SND/RCV payloads inside the
	// frame, so the bound is sized for payloads (64 MiB); sessions moving
	// more per cycle should use the shm data plane.
	MaxFrame = 1 << 26

	// inlineDataThreshold is the largest payload copied into the meta
	// buffer instead of riding as its own writev segment: below it, one
	// syscall beats avoiding one memcpy.
	inlineDataThreshold = 4096
)

// intern returns the canonical value of every string constant the protocol
// puts on the wire instead of allocating, which is what keeps the
// steady-state decode path at zero allocations. A string switch compiles
// to a dispatch on length and a discriminating byte, then one comparison:
// constant time, however many constants there are.
func intern(b []byte) string {
	switch string(b) {
	case "REQ":
		return "REQ"
	case "SND":
		return "SND"
	case "STR":
		return "STR"
	case "STP":
		return "STP"
	case "RCV":
		return "RCV"
	case "RLS":
		return "RLS"
	case "BAT":
		return "BAT"
	case "STA":
		return "STA"
	case "MIG":
		return "MIG"
	case "ADP":
		return "ADP"
	case "ACK":
		return "ACK"
	case "WAIT":
		return "WAIT"
	case "ERR":
		return "ERR"
	case PlaneShm:
		return PlaneShm
	case PlaneInline:
		return PlaneInline
	case PlaneRing:
		return PlaneRing
	}
	return string(b)
}

// frameEncoder assembles one frame as an ordered list of segments: spans
// of its meta buffer interleaved with external payload slices that are
// never copied (they ride writev scatter-gather straight from the
// caller's buffer). The encoder is reused across frames by Conn.
type frameEncoder struct {
	buf  []byte // header + every non-payload field
	segs []frameSeg
	mark int // start of the open buf span
	// iovBuf is the persistent backing array for iov. WriteTo consumes iov
	// in place (advances its header past the backing), so buffers() must
	// rebuild from a header that still points at the array's base or every
	// frame would reallocate it.
	iovBuf [][]byte
	iov    net.Buffers
}

type frameSeg struct {
	off, end int    // span of frameEncoder.buf when ext is nil
	ext      []byte // external payload, referenced not copied
}

func (e *frameEncoder) reset() {
	e.buf = e.buf[:0]
	e.clearAliases()
}

// clearAliases drops every external payload reference the encoder holds
// (segment list and iov backing array). Callers' payload buffers are
// often pooled; an alias retained here past the frame's write — or past
// an encode error — would pin the buffer, and alias live data once the
// pool recycles it.
func (e *frameEncoder) clearAliases() {
	for i := range e.segs {
		e.segs[i].ext = nil
	}
	e.segs = e.segs[:0]
	for i := range e.iovBuf {
		e.iovBuf[i] = nil
	}
	e.iovBuf = e.iovBuf[:0]
	e.mark = 0
}

// external closes the open meta span and appends p as its own segment.
func (e *frameEncoder) external(p []byte) {
	if len(e.buf) > e.mark {
		e.segs = append(e.segs, frameSeg{off: e.mark, end: len(e.buf)})
	}
	e.segs = append(e.segs, frameSeg{ext: p})
	e.mark = len(e.buf)
}

func (e *frameEncoder) str(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *frameEncoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *frameEncoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *frameEncoder) byteVal(b byte)   { e.buf = append(e.buf, b) }

// bytes encodes an optional payload: presence byte, then length + bytes.
// Large payloads become external segments (zero copy).
func (e *frameEncoder) bytes(p []byte) {
	if p == nil {
		e.byteVal(0)
		return
	}
	e.byteVal(1)
	e.uvarint(uint64(len(p)))
	if len(p) == 0 {
		return
	}
	if len(p) <= inlineDataThreshold {
		e.buf = append(e.buf, p...)
		return
	}
	e.external(p)
}

// finish validates the payload length and patches the frame header. It
// must be called exactly once, after all fields are encoded.
func (e *frameEncoder) finish() error {
	n := len(e.buf) - headerLen
	for _, s := range e.segs {
		n += len(s.ext)
	}
	if n > MaxFrame {
		return fmt.Errorf("transport: frame payload %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	binary.LittleEndian.PutUint32(e.buf[headerLen-4:headerLen], uint32(n))
	if len(e.buf) > e.mark {
		e.segs = append(e.segs, frameSeg{off: e.mark, end: len(e.buf)})
		e.mark = len(e.buf)
	}
	return nil
}

// buffers resolves the segment list against the (final) meta buffer into
// the reusable e.iov for writev.
func (e *frameEncoder) buffers() {
	e.iovBuf = e.iovBuf[:0]
	for _, s := range e.segs {
		if s.ext != nil {
			e.iovBuf = append(e.iovBuf, s.ext)
		} else {
			e.iovBuf = append(e.iovBuf, e.buf[s.off:s.end])
		}
	}
	e.iov = net.Buffers(e.iovBuf)
}

// flatten appends the complete contiguous frame to dst.
func (e *frameEncoder) flatten(dst []byte) []byte {
	for _, s := range e.segs {
		if s.ext != nil {
			dst = append(dst, s.ext...)
		} else {
			dst = append(dst, e.buf[s.off:s.end]...)
		}
	}
	return dst
}

func (e *frameEncoder) encodeRequest(req *Request) error {
	e.reset()
	e.buf = append(e.buf, frameMagic, kindRequest, 0, 0, 0, 0)
	e.requestFields(req)
	ext := req.Priority != 0 || req.Weight != 0
	if len(req.Batch) > 0 || ext {
		// The extension section sits after the batch section, so a frame
		// carrying extensions always emits the batch count (possibly 0).
		e.uvarint(uint64(len(req.Batch)))
		for i := range req.Batch {
			if len(req.Batch[i].Batch) > 0 {
				return fmt.Errorf("transport: nested batch in %s frame", req.Verb)
			}
			if req.Batch[i].Priority != 0 || req.Batch[i].Weight != 0 {
				// REQ is disallowed inside BAT, and the fields are REQ-only.
				return fmt.Errorf("transport: Priority/Weight on batch sub-request %s", req.Batch[i].Verb)
			}
			e.requestFields(&req.Batch[i])
		}
	}
	if ext {
		var flags uint64
		if req.Priority != 0 {
			flags |= 2
		}
		if req.Weight != 0 {
			flags |= 4
		}
		e.uvarint(flags)
		if flags&2 != 0 {
			e.varint(int64(req.Priority))
		}
		if flags&4 != 0 {
			e.varint(int64(req.Weight))
		}
	}
	return e.finish()
}

func (e *frameEncoder) requestFields(req *Request) {
	e.str(req.Verb)
	e.varint(int64(req.Session))
	e.varint(int64(req.Rank))
	if req.Ref == nil {
		e.byteVal(0)
	} else {
		e.byteVal(1)
		e.str(req.Ref.Name)
		keys := make([]string, 0, len(req.Ref.Params))
		for k := range req.Ref.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.str(k)
			e.varint(int64(req.Ref.Params[k]))
		}
	}
	e.str(req.Plane)
	e.bytes(req.Data)
}

func (e *frameEncoder) encodeResponse(resp *Response) error {
	e.reset()
	e.buf = append(e.buf, frameMagic, kindResponse, 0, 0, 0, 0)
	e.responseFields(resp)
	if len(resp.Batch) > 0 {
		e.uvarint(uint64(len(resp.Batch)))
		for i := range resp.Batch {
			if len(resp.Batch[i].Batch) > 0 {
				return fmt.Errorf("transport: nested batch in response frame")
			}
			e.responseFields(&resp.Batch[i])
		}
	}
	return e.finish()
}

func (e *frameEncoder) responseFields(resp *Response) {
	e.str(resp.Status)
	e.varint(int64(resp.Session))
	e.str(resp.Err)
	e.str(resp.Plane)
	e.str(resp.Segment)
	e.varint(resp.InBytes)
	e.varint(resp.OutBytes)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(resp.VirtualMS))
	e.bytes(resp.Data)
}

// EncodeRequestBinary appends a complete binary request frame to dst and
// returns the extended slice, so callers can reuse one buffer across
// frames. Conn uses the scatter-gather path instead; this contiguous form
// serves tests, fuzzing and offline tooling.
func EncodeRequestBinary(dst []byte, req Request) ([]byte, error) {
	var e frameEncoder
	if err := e.encodeRequest(&req); err != nil {
		return nil, err
	}
	return e.flatten(dst), nil
}

// EncodeResponseBinary appends a complete binary response frame to dst.
func EncodeResponseBinary(dst []byte, resp Response) ([]byte, error) {
	var e frameEncoder
	if err := e.encodeResponse(&resp); err != nil {
		return nil, err
	}
	return e.flatten(dst), nil
}

// DecodeRequestBinaryInto parses one complete binary request frame into
// *req, reusing req.Batch's backing array across calls — the allocation-
// free decode the ring control plane runs per record. Every field of
// *req is overwritten. On error *req is unspecified. req.Data and
// sub-request Data alias frame: they are valid only as long as the caller
// keeps frame intact.
func DecodeRequestBinaryInto(req *Request, frame []byte) error {
	payload, err := framePayload(frame, kindRequest)
	if err != nil {
		return err
	}
	return decodeRequestInto(req, payload)
}

// decodeRequestInto is the one request decoder: every way a request frame
// is read (whole-frame, into a retained value, off a Conn) ends here. It
// writes every field in place: of an earlier frame, only the Batch backing
// stays.
func decodeRequestInto(req *Request, payload []byte) error {
	batch := req.Batch[:0]
	r := frameReader{b: payload}
	r.requestFields(req)
	req.Batch = batch // a frame with no batch section keeps the backing too
	if r.err == nil && r.off < len(r.b) {
		n := r.uvarint()
		if n > uint64(len(r.b)) { // each sub-request takes >= 6 bytes
			r.fail("batch count %d overruns payload", n)
		} else {
			if uint64(cap(batch)) < n {
				batch = make([]Request, 0, n)
			}
			for i := 0; i < int(n) && r.err == nil; i++ {
				batch = batch[:i+1]
				r.requestFields(&batch[i])
			}
			req.Batch = batch
		}
	}
	if r.err == nil && r.off < len(r.b) {
		r.requestExt(req)
	}
	return r.finish()
}

// DecodeResponseBinaryInto parses one complete binary response frame
// into *resp, reusing resp.Batch's backing array; the counterpart of
// DecodeRequestBinaryInto for the client side of the ring.
func DecodeResponseBinaryInto(resp *Response, frame []byte) error {
	payload, err := framePayload(frame, kindResponse)
	if err != nil {
		return err
	}
	return decodeResponseInto(resp, payload)
}

// decodeResponseInto is the one response decoder.
func decodeResponseInto(resp *Response, payload []byte) error {
	batch := resp.Batch[:0]
	r := frameReader{b: payload}
	r.responseFields(resp)
	resp.Batch = batch
	if r.err == nil && r.off < len(r.b) {
		n := r.uvarint()
		if n > uint64(len(r.b)) {
			r.fail("batch count %d overruns payload", n)
		} else {
			if uint64(cap(batch)) < n {
				batch = make([]Response, 0, n)
			}
			for i := 0; i < int(n) && r.err == nil; i++ {
				batch = batch[:i+1]
				r.responseFields(&batch[i])
			}
			resp.Batch = batch
		}
	}
	return r.finish()
}

// framePayload validates a whole-frame buffer's header and returns its
// payload bytes.
func framePayload(frame []byte, kind byte) ([]byte, error) {
	if len(frame) < headerLen {
		return nil, fmt.Errorf("transport: truncated frame header (%d bytes)", len(frame))
	}
	if frame[0] != frameMagic {
		return nil, fmt.Errorf("transport: bad frame magic 0x%02x", frame[0])
	}
	if frame[1] != kind {
		return nil, fmt.Errorf("transport: unexpected frame kind %q (want %q)", frame[1], kind)
	}
	n := binary.LittleEndian.Uint32(frame[2:6])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame payload %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	if uint32(len(frame)-headerLen) != n {
		return nil, fmt.Errorf("transport: frame length mismatch: header says %d, have %d payload bytes", n, len(frame)-headerLen)
	}
	return frame[headerLen:], nil
}

// frameReader is a cursor over one frame's payload; the first decode error
// sticks and subsequent reads return zero values.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: corrupt frame: "+format, args...)
	}
}

func (r *frameReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *frameReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// str decodes a string, returning the canonical interned value for
// protocol constants (verbs, statuses, plane names) so hot-path decodes
// allocate nothing.
func (r *frameReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes overruns payload at offset %d", n, r.off)
		return ""
	}
	s := intern(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *frameReader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("payload overrun at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// bytesVal decodes an optional byte payload as a sub-slice ALIASING the
// frame buffer — no copy. Callers that outlive the frame buffer (Conn
// reuses it for the next frame) must copy before then.
func (r *frameReader) bytesVal() []byte {
	if r.byteVal() == 0 {
		return nil
	}
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("byte payload of %d overruns frame at offset %d", n, r.off)
		return nil
	}
	out := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return out
}

func (r *frameReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("float64 overruns payload at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *frameReader) finish() error {
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// requestFields decodes one request's fields into *req and zeroes the ones
// the caller fills: Batch and the extensions.
func (r *frameReader) requestFields(req *Request) {
	req.Verb = r.str()
	req.Session = int(r.varint())
	req.Rank = int(r.varint())
	req.Ref = nil
	if r.byteVal() != 0 {
		ref := &workloads.Ref{Name: r.str()}
		if n := r.uvarint(); n > 0 {
			if n > uint64(len(r.b)) { // each pair takes >= 2 bytes
				r.fail("param count %d overruns payload", n)
			} else {
				ref.Params = make(map[string]int, n)
				for i := uint64(0); i < n && r.err == nil; i++ {
					k := r.str()
					ref.Params[k] = int(r.varint())
				}
			}
		}
		req.Ref = ref
	}
	req.Plane = r.str()
	req.Data = r.bytesVal()
	req.Batch = nil
	req.Priority, req.Weight = 0, 0
}

// requestExt decodes the optional trailing extension section: an
// extension-flags uvarint, then one varint per set flag. Unknown flags
// fail the frame — their encoding length is unknowable, so skipping them
// would desynchronize the reader.
func (r *frameReader) requestExt(req *Request) {
	flags := r.uvarint()
	if flags&2 != 0 {
		req.Priority = int(r.varint())
	}
	if flags&4 != 0 {
		req.Weight = int(r.varint())
	}
	if flags&^uint64(6) != 0 {
		r.fail("unknown request extension flags %#x", flags)
	}
}

// responseFields decodes one response's fields into *resp, Batch zeroed.
func (r *frameReader) responseFields(resp *Response) {
	resp.Status = r.str()
	resp.Session = int(r.varint())
	resp.Err = r.str()
	resp.Plane = r.str()
	resp.Segment = r.str()
	resp.InBytes = r.varint()
	resp.OutBytes = r.varint()
	resp.VirtualMS = r.f64()
	resp.Data = r.bytesVal()
	resp.Batch = nil
}
