// Package transport is the pluggable connection layer of the daemon-mode
// virtualization stack. It separates three concerns that used to be
// fused inside package ipc:
//
//   - Transport — how a client reaches the daemon: dial/listen plus the
//     round-trip framing that runs on the resulting connection. Four
//     transports are registered: unix (Unix-domain sockets, the classic
//     gvmd path), tcp (remote rCUDA-style access across nodes), inproc
//     (a socket-free in-process pipe for tests and co-located
//     deployments) and ring (a unix socket for REQ, shared-memory rings
//     for everything after).
//   - DataPlane / HostPlane — how SND/RCV payload bytes move: through a
//     file-backed shared-memory segment (PlaneShm, for clients that
//     share a filesystem with the daemon), inline inside the control
//     frame (PlaneInline, for remote clients with no shared /dev/shm),
//     or through the ring segment's staging regions (PlaneRing).
//   - The verb engine — frameRun (exec.go), the one place the daemon
//     executes session verbs: it walks a frame's steps through
//     gvm.Manager.DirectVerb on gvm daemon sessions, driven by their
//     completions. A frame is one session's verbs: FrameSteps is that
//     rule, written once and called by every carrier — the two
//     front-ends here and the federation router — before any session
//     work. The front-ends are thin: the socket Dispatcher (which also
//     owns the session table, REQ, teardown and failover) resolves who
//     may address what, stages an inline payload and hands the frame to
//     the session's shard owner once; the RingHost decodes records off a
//     session's own ring and encodes the responses back. The package
//     does not import internal/vgpu — that is the simulation's client
//     API, and `make one-engine` keeps it so.
//
// Addresses are URLs: "unix:///tmp/gvmd.sock", "tcp://host:7070",
// "ring:///tmp/gvmd.sock", "inproc://name". A bare path with no scheme
// means unix.
package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
)

// Data-plane kinds, selected per session at REQ time.
const (
	// PlaneShm exchanges payloads through a file-backed shared-memory
	// segment; client and daemon must share a filesystem.
	PlaneShm = "shm"
	// PlaneInline carries payloads inside the control frames themselves,
	// so a remote client needs nothing but the connection. One payload is
	// bounded by MaxFrame.
	PlaneInline = "inline"
	// PlaneRing moves the whole session — control verbs AND payloads —
	// through lock-free submission/completion rings inside one mmap'd
	// shared-memory segment (see ring.go). The socket only carries REQ;
	// every later verb is a ring record, so a warm cycle crosses the
	// kernel zero times. Requires a shared filesystem, like PlaneShm.
	PlaneRing = "ring"
)

// Transport binds the verb protocol to one kind of connection.
type Transport interface {
	// Scheme names the transport in addresses ("unix", "tcp", "inproc").
	Scheme() string
	// Dial opens a client connection to target (the address with the
	// scheme stripped).
	Dial(target string) (net.Conn, error)
	// Listen binds a server listener on target.
	Listen(target string) (Listener, error)
	// DefaultPlane is the data plane a session gets when the client does
	// not force one: shm for co-located transports, inline for remote.
	DefaultPlane() string
}

// Listener accepts connections for one transport binding.
type Listener interface {
	Accept() (net.Conn, error)
	Close() error
	// Addr returns the bound address in URL form (with the actual port
	// for tcp://...:0 requests).
	Addr() string
	Scheme() string
}

var registry = struct {
	sync.Mutex
	m map[string]Transport
}{m: make(map[string]Transport)}

// Register adds a transport to the scheme registry, replacing any
// previous transport with the same scheme.
func Register(t Transport) {
	registry.Lock()
	defer registry.Unlock()
	registry.m[t.Scheme()] = t
}

// Lookup resolves a scheme to its registered transport.
func Lookup(scheme string) (Transport, error) {
	registry.Lock()
	defer registry.Unlock()
	t, ok := registry.m[scheme]
	if !ok {
		return nil, fmt.Errorf("transport: unknown scheme %q (have unix, tcp, inproc, ring)", scheme)
	}
	return t, nil
}

// SplitAddr splits "scheme://target" into its parts. An address with no
// scheme is a unix socket path.
func SplitAddr(addr string) (scheme, target string) {
	if i := strings.Index(addr, "://"); i >= 0 {
		return addr[:i], addr[i+3:]
	}
	return "unix", addr
}

// DialAddr connects to a transport address and returns the connection
// together with the transport that produced it (for its DefaultPlane).
func DialAddr(addr string) (net.Conn, Transport, error) {
	scheme, target := SplitAddr(addr)
	t, err := Lookup(scheme)
	if err != nil {
		return nil, nil, err
	}
	nc, err := t.Dial(target)
	if err != nil {
		return nil, nil, err
	}
	return nc, t, nil
}

// ListenAddr binds a listener on a transport address.
func ListenAddr(addr string) (Listener, error) {
	scheme, target := SplitAddr(addr)
	t, err := Lookup(scheme)
	if err != nil {
		return nil, err
	}
	return t.Listen(target)
}

// netListener adapts a net.Listener to the Listener interface.
type netListener struct {
	ln     net.Listener
	scheme string
}

func (l netListener) Accept() (net.Conn, error) { return l.ln.Accept() }
func (l netListener) Close() error              { return l.ln.Close() }
func (l netListener) Addr() string              { return l.scheme + "://" + l.ln.Addr().String() }
func (l netListener) Scheme() string            { return l.scheme }

type unixTransport struct{}

func (unixTransport) Scheme() string       { return "unix" }
func (unixTransport) DefaultPlane() string { return PlaneShm }
func (unixTransport) Dial(target string) (net.Conn, error) {
	return net.Dial("unix", target)
}
func (unixTransport) Listen(target string) (Listener, error) {
	ln, err := net.Listen("unix", target)
	if err != nil {
		return nil, err
	}
	return netListener{ln: ln, scheme: "unix"}, nil
}

type tcpTransport struct{}

func (tcpTransport) Scheme() string       { return "tcp" }
func (tcpTransport) DefaultPlane() string { return PlaneInline }
func (tcpTransport) Dial(target string) (net.Conn, error) {
	return net.Dial("tcp", target)
}
func (tcpTransport) Listen(target string) (Listener, error) {
	ln, err := net.Listen("tcp", target)
	if err != nil {
		return nil, err
	}
	return netListener{ln: ln, scheme: "tcp"}, nil
}

// ringTransport is the zero-syscall control plane's scheme: the listener
// and dial are ordinary unix sockets (REQ negotiation and codec preamble
// still travel there), but sessions default to the ring data plane, so
// after REQ every verb moves through the session's shared-memory rings
// and never touches the socket again.
type ringTransport struct{}

func (ringTransport) Scheme() string       { return "ring" }
func (ringTransport) DefaultPlane() string { return PlaneRing }
func (ringTransport) Dial(target string) (net.Conn, error) {
	return net.Dial("unix", target)
}
func (ringTransport) Listen(target string) (Listener, error) {
	ln, err := net.Listen("unix", target)
	if err != nil {
		return nil, err
	}
	return netListener{ln: ln, scheme: "ring"}, nil
}

// inprocTransport serves dials from the same process through synchronous
// in-memory pipes — no OS socket, no filesystem. Names live in a
// process-global registry.
type inprocTransport struct {
	mu  sync.Mutex
	lns map[string]*inprocListener
}

func (t *inprocTransport) Scheme() string       { return "inproc" }
func (t *inprocTransport) DefaultPlane() string { return PlaneShm }

func (t *inprocTransport) Dial(name string) (net.Conn, error) {
	t.mu.Lock()
	l := t.lns[name]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: no inproc listener %q", name)
	}
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		client.Close()
		return nil, fmt.Errorf("transport: inproc listener %q closed", name)
	}
}

func (t *inprocTransport) Listen(name string) (Listener, error) {
	if name == "" {
		return nil, errors.New("transport: inproc listener needs a name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.lns[name]; ok {
		return nil, fmt.Errorf("transport: inproc name %q already in use", name)
	}
	l := &inprocListener{t: t, name: name, ch: make(chan net.Conn), done: make(chan struct{})}
	t.lns[name] = l
	return l, nil
}

type inprocListener struct {
	t    *inprocTransport
	name string
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *inprocListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.t.mu.Lock()
	if l.t.lns[l.name] == l {
		delete(l.t.lns, l.name)
	}
	l.t.mu.Unlock()
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *inprocListener) Addr() string   { return "inproc://" + l.name }
func (l *inprocListener) Scheme() string { return "inproc" }

func init() {
	Register(unixTransport{})
	Register(tcpTransport{})
	Register(ringTransport{})
	Register(&inprocTransport{lns: make(map[string]*inprocListener)})
}
