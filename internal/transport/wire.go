package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"gpuvirt/internal/workloads"
)

// Request is a wire-encoded protocol request.
type Request struct {
	Verb    string // REQ SND STR STP RCV RLS
	Session int
	Ref     *workloads.Ref // REQ and ADP only
	Rank    int            // REQ and ADP only
	// Plane names the data plane the client wants for the session (REQ
	// only): PlaneShm, PlaneInline, or "" to accept the transport's
	// default.
	Plane string
	// Data carries the SND payload on the inline data plane (nil on the
	// shm plane, where the payload travels through the segment), and ADP's
	// migration blob.
	Data []byte
	// Batch carries the sub-requests of a BAT container frame, executed
	// in order in one daemon round trip (verb pipelining). Sub-requests
	// must not nest batches. Empty for ordinary single-verb frames, whose
	// wire form is unchanged from the pre-batch protocol.
	Batch []Request
	// Priority (REQ and ADP only) orders eviction under memory pressure:
	// lower priority sessions are evicted first. 0 is the default class.
	Priority int
	// Weight (REQ and ADP only) is the session's weighted-fair share of SM
	// compute time (and its preemption precedence). 0 (the wire default)
	// derives the weight from Priority; frames without the field are
	// byte-identical to the pre-QoS format.
	Weight int
}

// Response is a wire-encoded protocol response.
type Response struct {
	Status  string // ACK WAIT ERR
	Session int
	Err     string
	// REQ extras: the chosen data plane, and — on the shm plane — where
	// the segment lives and how big the staging areas are.
	Plane    string
	Segment  string
	InBytes  int64
	OutBytes int64
	// Data carries the RCV payload on the inline data plane.
	Data []byte
	// VirtualMS is the simulated GPU clock at response time, so clients
	// can report device-side timings.
	VirtualMS float64
	// Batch carries the per-sub-request responses of a BAT frame, in the
	// order the sub-requests were given; processing stops at the first
	// failing sub-request.
	Batch []Response
}

// preamble is the first byte a client sends after connecting. It names
// the wire format ('B', the binary frames of frame.go — the only one), so
// a peer that is not a gvm client at all is turned away at byte one
// instead of at a confusing frame-decode failure.
const preamble byte = 'B'

// WritePreamble sends the client's preamble byte.
func WritePreamble(w io.Writer) error {
	_, err := w.Write([]byte{preamble})
	return err
}

// readPreamble consumes and checks a client's preamble byte.
func readPreamble(r io.Reader) error {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	if b[0] != preamble {
		return fmt.Errorf("transport: bad preamble 0x%02x (want %q)", b[0], preamble)
	}
	return nil
}

// rejectGrace bounds how long a server keeps reading from a connection
// it is turning away.
const rejectGrace = time.Second

// rejectConn turns a freshly accepted connection away without failing
// the client's own writes: it sends its first request right behind the
// preamble, and closing a socket with that unread resets it (EPIPE or
// ECONNRESET instead of a clean EOF). So, bounded by rejectGrace:
// half-close, discard at most MaxFrame bytes, and close.
func rejectConn(nc net.Conn) {
	_ = nc.SetDeadline(time.Now().Add(rejectGrace))
	if hc, ok := nc.(interface{ CloseWrite() error }); ok {
		_ = hc.CloseWrite()
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(nc, MaxFrame))
	nc.Close()
}

// Conn frames requests and responses over a stream connection in the
// length-prefixed binary format (frame.go), reusing one encode buffer, one
// read buffer and one decoded frame across frames.
type Conn struct {
	c   net.Conn
	raw rawConn      // the fd path frames take when c has one
	we  frameEncoder // reused scatter-gather encoder
	// rbuf is the connection's one read buffer, pooled, used at full length:
	// rbuf[rd:wr] arrived and is not consumed yet. A frame is decoded where
	// it landed, so what a read returns aliases rbuf.
	rbuf   []byte
	rd, wr int
	// The retained decode targets, which a read returns: like rbuf, valid
	// until the next read. A connection uses one.
	req  Request
	resp Response
}

const (
	// rbufHighWater caps the read buffer a connection retains between frames.
	// One giant inline frame would otherwise pin up to MaxFrame bytes for the
	// connection's lifetime; above the mark the buffer goes back to the pool
	// as soon as a frame no longer needs it, for a small one.
	rbufHighWater = 1 << 20
	// rbufMin is the smallest read buffer a connection draws: room for every
	// control frame in one read.
	rbufMin = 4 << 10
)

// NewConn wraps a connection with the binary frame codec. A socket's frames
// move by raw non-blocking syscalls (rawconn_linux.go), a pipe's by net.Conn.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{c: c}
	conn.bindRaw(c)
	return conn
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// Release returns the connection's pooled read buffer. Call it at most
// once, when no read can be in flight — the reading goroutine after its
// loop exits, or a peer that has already closed and joined the reader.
// Releasing while a concurrent ReadRequest still aliases rbuf would hand
// live bytes back to the pool. The frame the last read returned stays
// readable but for its payloads (Data, in it and in its Batch), which alias
// the buffer.
func (c *Conn) Release() {
	putBuf(c.rbuf)
	c.rbuf, c.rd, c.wr = nil, 0, 0
}

// SetDeadline bounds both reads and writes on the underlying connection;
// the zero time clears it. Clients use it to put an I/O timeout around
// each round trip so a hung daemon cannot block them forever.
func (c *Conn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// WriteRequest sends one request frame. Payloads above the inline
// threshold are not copied: they ride a writev (net.Buffers) straight
// from req.Data, so the caller must not mutate it until the call returns.
func (c *Conn) WriteRequest(req *Request) error {
	if err := c.we.encodeRequest(req); err != nil {
		// A failed encode (e.g. nested batch) aborts mid-frame: drop the
		// payload aliases accumulated so far so the encoder is clean for
		// the next frame and pins nothing.
		c.we.clearAliases()
		return err
	}
	return c.writeFrame()
}

// WriteResponse sends one response frame; the same no-copy rule as
// WriteRequest applies to resp.Data.
func (c *Conn) WriteResponse(resp *Response) error {
	if err := c.we.encodeResponse(resp); err != nil {
		c.we.clearAliases()
		return err
	}
	return c.writeFrame()
}

// writeFrame flushes the encoder's segment list, large payloads straight
// from the caller's memory: they are never copied into the encode buffer.
func (c *Conn) writeFrame() error {
	c.we.buffers()
	err := c.flush()
	// Whether the write completed or died short, the frame is over: drop
	// payload aliases so the reused encoder does not pin (or later alias)
	// the caller's pooled buffers.
	c.we.clearAliases()
	return err
}

// flushConn is flush over net.Conn: one Write for a single segment, else
// net.Buffers' writev. WriteTo consumes c.we.iov, which the encoder rebuilds
// for the next frame; called on the field, not a local, so the net.Buffers
// header does not escape to the heap on every frame.
func (c *Conn) flushConn() error {
	var err error
	if len(c.we.iov) == 1 {
		_, err = c.c.Write(c.we.iov[0])
	} else {
		_, err = c.we.iov.WriteTo(c.c)
	}
	return err
}

// ReadRequest receives one request frame, decoded into the connection's
// retained request: it, its Data and its Batch are valid until the next
// read, and the caller may rewrite its fields meanwhile.
func (c *Conn) ReadRequest() (*Request, error) {
	payload, err := c.readFrame(kindRequest)
	if err == nil {
		err = decodeRequestInto(&c.req, payload)
	}
	if err != nil {
		return nil, err
	}
	return &c.req, nil
}

// ReadResponse receives one response frame into the connection's retained
// response; ReadRequest's lifetime rule applies.
func (c *Conn) ReadResponse() (*Response, error) {
	payload, err := c.readFrame(kindResponse)
	if err == nil {
		err = decodeResponseInto(&c.resp, payload)
	}
	if err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// readFrame reads one binary frame of the given kind and returns its
// payload where it landed in the connection's read buffer (valid until the
// next read). A frame that arrives in one segment costs one read and no
// copy; bytes of the next frame read with it wait in the buffer.
func (c *Conn) readFrame(kind byte) ([]byte, error) {
	if c.rd == c.wr {
		c.rd, c.wr = 0, 0 // nothing pending: the frame lands at the front
	}
	if err := c.fill(headerLen); err != nil {
		if c.rd == c.wr {
			return nil, err // clean EOF between frames passes through
		}
		return nil, fmt.Errorf("transport: truncated frame header: %w", midFrame(err))
	}
	hdr := c.rbuf[c.rd : c.rd+headerLen]
	if hdr[0] != frameMagic {
		return nil, fmt.Errorf("transport: bad frame magic 0x%02x", hdr[0])
	}
	if hdr[1] != kind {
		return nil, fmt.Errorf("transport: unexpected frame kind %q (want %q)", hdr[1], kind)
	}
	n := binary.LittleEndian.Uint32(hdr[2:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame payload %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	end := headerLen + int(n)
	// Above the high-water mark, the buffer goes back to the pool as soon as
	// what is pending fits a small one. Whatever the previous read returned
	// is dead by contract, so the old buffer is free to go.
	if keep := max(end, c.wr-c.rd); cap(c.rbuf) > rbufHighWater && keep <= rbufHighWater {
		c.move(keep)
	}
	if err := c.fill(end); err != nil {
		if c.wr-c.rd > headerLen {
			err = midFrame(err)
		}
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	payload := c.rbuf[c.rd+headerLen : c.rd+end : c.rd+end]
	c.rd += end
	return payload, nil
}

// fill reads until rbuf[rd:wr] holds need bytes, each read taking as much
// as the buffer holds. Only when the frame does not fit behind rd does it
// make room: compacting the pending bytes to the front, or moving them to
// a bigger buffer.
func (c *Conn) fill(need int) error {
	if c.rd+need > len(c.rbuf) {
		if need > len(c.rbuf) {
			c.move(need)
		} else {
			c.wr = copy(c.rbuf, c.rbuf[c.rd:c.wr])
			c.rd = 0
		}
	}
	for c.wr-c.rd < need {
		m, err := c.readSome(c.rbuf[c.wr:])
		c.wr += m
		if err != nil && c.wr-c.rd < need {
			return err
		}
	}
	return nil
}

// move copies the pending bytes to the front of a pooled buffer of at
// least size bytes and returns the old buffer to the pool.
func (c *Conn) move(size int) {
	b := getBuf(max(size, rbufMin))
	b = b[:cap(b)]
	c.wr = copy(b, c.rbuf[c.rd:c.wr])
	c.rd = 0
	putBuf(c.rbuf)
	c.rbuf = b
}

// midFrame is io.ReadFull's rule: EOF after part of what was asked for is
// io.ErrUnexpectedEOF.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
