package ipc

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// Options configures a client connection.
type Options struct {
	// ShmDir is the daemon's shm data-plane directory ("" = /dev/shm).
	// Only the shm plane uses it.
	ShmDir string
	// Plane forces a data plane (transport.PlaneShm, transport.PlaneInline
	// or transport.PlaneRing); "" takes the transport's default — shm for
	// unix/inproc, inline for tcp, ring for ring.
	Plane string
	// Timeout bounds each request round trip's socket I/O (one SetDeadline
	// before write+read), so a hung or SIGSTOP'd daemon surfaces as an
	// error instead of blocking the client forever. 0 (the default)
	// disables the deadline. A timed-out connection may hold a partial
	// frame and must be closed, not reused.
	Timeout time.Duration
	// NoPipeline disables verb pipelining: RunCycle issues its four verbs
	// as separate round trips instead of one BAT frame.
	NoPipeline bool
}

// Client is a real-process connection to a gvmd daemon. It is the thin
// transport binding of the one vgpu-style client API: verbs travel as
// frames, payloads through the session's data plane, and all protocol
// state lives server-side in the shared dispatcher. A response is the
// connection's retained one until the client's next round trip, so a
// Client's sessions are driven from one goroutine at a time.
type Client struct {
	// Fixed at dial.
	conn       *transport.Conn
	shmDir     string
	plane      string
	timeout    time.Duration
	noPipeline bool

	mu    sync.Mutex // serializes round trips on conn
	trips int64
}

// DialOptions connects to a daemon address — "unix:///path" (or a bare
// socket path), "tcp://host:port", "ring:///path", "inproc://name". o.ShmDir
// must match the daemon's data-plane directory ("" = /dev/shm) when the shm
// or ring plane is in play.
func DialOptions(addr string, o Options) (*Client, error) {
	conn, plane, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: dial %s: %w", addr, err)
	}
	if o.Plane != "" {
		plane = o.Plane
	}
	return &Client{conn: conn, shmDir: o.ShmDir, plane: plane, timeout: o.Timeout, noPipeline: o.NoPipeline}, nil
}

// Close drops the connection; the daemon releases any sessions left open.
func (c *Client) Close() error {
	// Close the connection first, without mu: it unblocks any round trip
	// stuck in a read. Then taking mu waits that round trip out, after which
	// no read is in flight and the pooled read buffer can be released.
	err := c.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn.Release()
	return err
}

// RoundTrips returns how many request round trips the client has made;
// tests use it to assert that a pipelined cycle costs one frame exchange.
func (c *Client) RoundTrips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trips
}

// roundTrip sends one request and reads its response, which is the
// connection's retained one: valid until the client's next round trip.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trips++
	if c.timeout > 0 {
		// Set once per trip and never cleared: every read and write on conn
		// happens here under mu, so the last trip's deadline, long past
		// while the client idles, is replaced before any I/O it could fail.
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := c.conn.WriteRequest(req); err != nil {
		return nil, c.wrapTimeout(req.Verb, err)
	}
	resp, err := c.conn.ReadResponse()
	if err != nil {
		return nil, c.wrapTimeout(req.Verb, err)
	}
	if resp.Status == "ERR" {
		return resp, fmt.Errorf("ipc: %s: %s", req.Verb, resp.Err)
	}
	return resp, nil
}

func (c *Client) wrapTimeout(verb string, err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("ipc: %s: no response within %v (daemon hung or stopped?): %w", verb, c.timeout, err)
	}
	return err
}

// Failover retry backoff bounds. Exponential growth from the base,
// clamped per try, with full ±50% jitter — N workers bounced by the
// same node failover must not thundering-herd the router in lockstep —
// and a max-elapsed budget so a daemon that can never re-place the
// session fails the call instead of hanging the client.
const (
	failoverBase       = time.Millisecond
	failoverMaxDelay   = 32 * time.Millisecond
	failoverMaxElapsed = 2 * time.Second
)

// failoverBackoff yields the sleep before each failover retry. Not
// goroutine-safe; each retry loop owns one.
type failoverBackoff struct {
	attempt int
	slept   time.Duration
	rnd     func() float64 // [0,1); nil = math/rand (tests inject)
}

// next returns the next sleep and whether the elapsed budget allows
// another retry. Every returned delay lies in
// [failoverBase/2, 1.5*failoverMaxDelay) and the sum of all returned
// delays never exceeds failoverMaxElapsed.
func (b *failoverBackoff) next() (time.Duration, bool) {
	if b.slept >= failoverMaxElapsed {
		return 0, false
	}
	d := failoverBase << b.attempt
	if d <= 0 || d > failoverMaxDelay {
		d = failoverMaxDelay
	}
	r := b.rnd
	if r == nil {
		r = rand.Float64
	}
	d = time.Duration(float64(d) * (0.5 + r())) // jitter: [0.5x, 1.5x)
	if d < 1 {
		d = 1
	}
	if remaining := failoverMaxElapsed - b.slept; d > remaining {
		d = remaining
	}
	b.attempt++
	b.slept += d
	return d, true
}

// retryFailover runs fn, re-issuing it while the daemon answers with a
// retryable error — the session is being live-migrated off a faulted
// shard or a draining node, or the verb raced the move. The first retry
// usually lands on the session's new home (daemons migrate on touch;
// the federation router re-places on the next verb); the jittered,
// budgeted backoff covers background evacuations still in flight. All
// verbs are safe to re-issue: SND restages the same bytes, STR re-runs
// a deterministic cycle, STP/RCV only observe.
func retryFailover(fn func() error) error {
	var bo failoverBackoff
	for {
		err := fn()
		if err == nil || !gvm.IsRetryable(err.Error()) {
			return err
		}
		d, ok := bo.next()
		if !ok {
			return err
		}
		time.Sleep(d)
	}
}

// Session is one VGPU session over the wire: the client-side handle of
// the paper's API layer for real processes. Its method set mirrors
// vgpu.VGPU; payload movement is delegated to the session's data plane.
type Session struct {
	c  *Client
	id int
	// plane moves the payloads and, when the session negotiated the ring
	// plane, is its carrier too (plane.Ring): every verb frame then travels
	// as a record through the session's shared-memory rings and never
	// touches the socket. Otherwise the client's connection carries them.
	// Picked once, at REQ.
	plane    *transport.Plane
	inBytes  int64
	outBytes int64
	// mu serializes the session's trips (the rings are strictly SPSC) and
	// guards cycle, which keeps a pipelined cycle free of per-cycle
	// allocations on either carrier.
	mu    sync.Mutex
	cycle [4]Request // RunCycle's BAT sub-requests
	// VirtualMS is the simulated-GPU clock at the last response.
	VirtualMS float64
}

// SessionOptions are the optional REQ parameters a client may attach
// when opening a session.
type SessionOptions struct {
	// Priority orders eviction under memory pressure: lower-priority
	// sessions are evicted first. 0 is the default class.
	Priority int
	// Weight is the session's weighted-fair share of SM compute time and
	// its preemption precedence. 0 derives the weight from Priority;
	// 1 everywhere reproduces the unweighted scheduler. Daemons predating
	// the field ignore it (the wire encoding is backward compatible).
	Weight int
}

// Request opens a VGPU session for the given workload reference.
func (c *Client) Request(ref workloads.Ref, rank int) (*Session, error) {
	return c.RequestOptions(ref, rank, SessionOptions{})
}

// RequestOptions opens a VGPU session with explicit session options.
func (c *Client) RequestOptions(ref workloads.Ref, rank int, o SessionOptions) (*Session, error) {
	resp, err := c.roundTrip(&Request{Verb: "REQ", Ref: &ref, Rank: rank, Plane: c.plane,
		Priority: o.Priority, Weight: o.Weight})
	if err != nil {
		return nil, err
	}
	plane, err := transport.OpenPlane(c.shmDir, resp)
	if err != nil {
		// The daemon opened the session; without its plane it is of no use
		// here, and left open it would hold its device reservation, staging
		// and segment file until the connection drops.
		_, _ = c.roundTrip(&Request{Verb: "RLS", Session: resp.Session})
		return nil, err
	}
	if plane.Ring != nil {
		plane.Ring.SetTimeout(c.timeout)
	}
	return &Session{
		c:        c,
		id:       resp.Session,
		plane:    plane,
		inBytes:  resp.InBytes,
		outBytes: resp.OutBytes,
	}, nil
}

// ID returns the daemon-assigned session id.
func (s *Session) ID() int { return s.id }

// Plane returns the data plane kind the session negotiated.
func (s *Session) Plane() string { return s.plane.Kind() }

// trip carries one frame to the daemon over the session's carrier and
// returns its response, the carrier's retained one: valid until the
// carrier's next trip. An answer other than ACK is an error. The caller
// holds s.mu.
func (s *Session) trip(req *Request) (resp *Response, err error) {
	if ring := s.plane.Ring; ring != nil {
		resp, err = ring.Trip(req)
	} else {
		resp, err = s.c.roundTrip(req)
	}
	switch {
	case err != nil:
		return nil, err
	case resp.Status == "ERR":
		return nil, fmt.Errorf("ipc: %s: %s", req.Verb, resp.Err)
	case resp.Status != "ACK":
		return nil, fmt.Errorf("ipc: %s: unexpected status %s", req.Verb, resp.Status)
	}
	return resp, nil
}

// call issues one verb frame, re-issuing it through failovers, and lets
// collect (if any) read the response while it is valid.
func (s *Session) call(req *Request, collect func(*Response) error) error {
	return retryFailover(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		resp, err := s.trip(req)
		if err != nil {
			return err
		}
		s.VirtualMS = resp.VirtualMS
		if collect != nil {
			return collect(resp)
		}
		return nil
	})
}

func (s *Session) verb(verb string) error {
	return s.call(&Request{Verb: verb, Session: s.id}, nil)
}

// RingTrips returns how many ring round trips the session has made (0
// for socket sessions); tests use it to assert verbs stayed off the
// socket.
func (s *Session) RingTrips() int64 {
	if s.plane.Ring == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plane.Ring.Trips()
}

// SendInput stages the input through the data plane and issues SND.
// data may be nil against a timing-only daemon.
func (s *Session) SendInput(data []byte) error {
	if data != nil && int64(len(data)) != s.inBytes {
		return fmt.Errorf("ipc: input is %d bytes, session stages %d", len(data), s.inBytes)
	}
	req := Request{Verb: "SND", Session: s.id}
	if data != nil {
		if err := s.plane.StageIn(data, &req); err != nil {
			return err
		}
	}
	// The staged bytes survive a retry: the plane (or req.Data for the
	// inline plane) still holds them, and the daemon restages from
	// scratch on each attempt.
	return s.call(&req, nil)
}

// Start issues STR; it returns once the daemon's barrier has flushed all
// parties' streams.
func (s *Session) Start() error { return s.verb("STR") }

// Wait issues STP. On every transport the daemon answers it once the
// stream has completed, so a single trip suffices and nothing ever polls.
func (s *Session) Wait() error { return s.verb("STP") }

// Receive issues RCV and collects the results through the data plane.
func (s *Session) Receive(buf []byte) error {
	if buf != nil && int64(len(buf)) != s.outBytes {
		return fmt.Errorf("ipc: output buffer is %d bytes, session stages %d", len(buf), s.outBytes)
	}
	return s.call(&Request{Verb: "RCV", Session: s.id}, func(resp *Response) error {
		return s.plane.CollectOut(buf, resp)
	})
}

// Release issues RLS and detaches the data plane.
func (s *Session) Release() error {
	err := s.verb("RLS")
	if cerr := s.plane.Close(); err == nil {
		err = cerr
	}
	return err
}

// RunCycle performs one full cycle: send, start, wait, receive. By
// default the four verbs travel pipelined in one BAT frame — one round
// trip on a socket; on the ring zero syscalls and zero allocations, the
// only byte movement being the caller's own staging copies into and out of
// the mapped segment. With Options.NoPipeline they take four serial trips.
func (s *Session) RunCycle(in, out []byte) error {
	if in != nil && int64(len(in)) != s.inBytes {
		return fmt.Errorf("ipc: input is %d bytes, session stages %d", len(in), s.inBytes)
	}
	if out != nil && int64(len(out)) != s.outBytes {
		return fmt.Errorf("ipc: output buffer is %d bytes, session stages %d", len(out), s.outBytes)
	}
	if s.c.noPipeline {
		return s.runCycleSerial(in, out)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cycle = [4]Request{
		{Verb: "SND", Session: s.id},
		{Verb: "STR", Session: s.id},
		{Verb: "STP", Session: s.id},
		{Verb: "RCV", Session: s.id},
	}
	if in != nil {
		if err := s.plane.StageIn(in, &s.cycle[0]); err != nil {
			return err
		}
	}
	// A failover mid-batch fails one step with a retryable error (later
	// steps report skipped); re-issuing the whole cycle is safe — SND
	// restages the same bytes and the cycle is deterministic. On the ring
	// the re-issued frame queues in the submission ring and the adopting
	// shard's sweep serves it once the session lands there.
	return retryFailover(func() error {
		resp, err := s.trip(&Request{Verb: "BAT", Batch: s.cycle[:]})
		if err != nil {
			return err
		}
		if len(resp.Batch) != len(s.cycle) {
			return fmt.Errorf("ipc: BAT returned %d responses for %d requests", len(resp.Batch), len(s.cycle))
		}
		for i := range resp.Batch {
			if resp.Batch[i].Status != "ACK" {
				return fmt.Errorf("ipc: %s (pipelined): %s", s.cycle[i].Verb, resp.Batch[i].Err)
			}
		}
		rcv := &resp.Batch[3]
		s.VirtualMS = rcv.VirtualMS
		return s.plane.CollectOut(out, rcv)
	})
}

func (s *Session) runCycleSerial(in, out []byte) error {
	if err := s.SendInput(in); err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	if err := s.Wait(); err != nil {
		return err
	}
	return s.Receive(out)
}
