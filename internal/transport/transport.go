// Package transport is the connection layer of the daemon-mode
// virtualization stack. It separates three concerns that used to be
// fused inside package ipc:
//
//   - The transport — how a client reaches the daemon: Dial, the daemon's
//     front door (Door: listen, accept, the preamble, the read loop, the
//     hang-up) and the round-trip framing that runs on the resulting
//     connection (Conn). There are four, one row each of the
//     schemes table: unix (Unix-domain sockets, the classic gvmd path),
//     tcp (remote rCUDA-style access across nodes), inproc (a socket-free
//     in-process pipe for tests and co-located deployments) and ring (a
//     unix socket for REQ, shared-memory rings for everything after).
//   - The data plane — how SND/RCV payload bytes move: through a
//     file-backed shared-memory segment (PlaneShm, for clients that
//     share a filesystem with the daemon), inline inside the control
//     frame (PlaneInline, for remote clients with no shared /dev/shm),
//     or through the ring segment's staging regions (PlaneRing). A
//     session's plane is one type on each side of the wire — Plane on the
//     client, hostPlane on the daemon (plane.go) — whatever its kind.
//   - The verb engine — frameRun (exec.go), the one place the daemon
//     executes session verbs: it walks a frame's steps through
//     gvm.Manager.DirectVerb on gvm sessions, driven by their
//     completions. A frame is one session's verbs: FrameSteps is that
//     rule, written once and called by every carrier — the two
//     front-ends here and the federation router — before any session
//     work. The front-ends are thin: the socket Dispatcher (which also
//     owns the session table, REQ, teardown and failover) resolves who
//     may address what, stages an inline payload and starts the frame in
//     one turn as the session's shard owner; the RingHost decodes records off a
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

// listener accepts connections on one bound address.
type listener interface {
	Accept() (net.Conn, error)
	Close() error
	// Addr returns the bound address in URL form (with the actual port
	// for tcp://...:0 requests).
	Addr() string
	// DefaultPlane is the data plane a session opened over this listener
	// gets when the client does not force one.
	DefaultPlane() string
}

// scheme is one way to reach a daemon: the net network an address scheme
// dials and listens on ("" is the in-process pipe) and the data plane its
// sessions default to — shm for co-located schemes, inline for remote.
type scheme struct{ network, plane string }

// ring is the zero-syscall control plane's scheme: dial and listener are
// ordinary unix sockets (the preamble and REQ still travel there), but its
// sessions default to the ring plane, so after REQ every verb moves through
// the session's shared-memory rings and never touches the socket again.
var schemes = map[string]scheme{
	"unix":   {"unix", PlaneShm},
	"tcp":    {"tcp", PlaneInline},
	"ring":   {"unix", PlaneRing},
	"inproc": {"", PlaneShm},
}

// SplitAddr splits "scheme://target" into its parts. An address with no
// scheme is a unix socket path.
func SplitAddr(addr string) (scheme, target string) {
	if i := strings.Index(addr, "://"); i >= 0 {
		return addr[:i], addr[i+3:]
	}
	return "unix", addr
}

func lookupScheme(name string) (scheme, error) {
	sch, ok := schemes[name]
	if !ok {
		return scheme{}, fmt.Errorf("transport: unknown scheme %q (have unix, tcp, inproc, ring)", name)
	}
	return sch, nil
}

// DialAddr opens a raw connection to a transport address and returns it with
// the scheme's default data plane. The codec preamble is the caller's to
// send; Dial does both.
func DialAddr(addr string) (net.Conn, string, error) {
	name, target := SplitAddr(addr)
	sch, err := lookupScheme(name)
	if err != nil {
		return nil, "", err
	}
	var nc net.Conn
	if sch.network == "" {
		nc, err = dialInproc(target)
	} else {
		nc, err = net.Dial(sch.network, target)
	}
	if err != nil {
		return nil, "", err
	}
	return nc, sch.plane, nil
}

// Dial connects to a daemon (or router) address, sends the codec preamble
// and returns the framed connection with the scheme's default data plane.
func Dial(addr string) (*Conn, string, error) {
	nc, plane, err := DialAddr(addr)
	if err != nil {
		return nil, "", err
	}
	if err := WritePreamble(nc); err != nil {
		nc.Close()
		return nil, "", err
	}
	return NewConn(nc), plane, nil
}

// listen binds a listener on a transport address.
func listen(addr string) (listener, error) {
	name, target := SplitAddr(addr)
	sch, err := lookupScheme(name)
	if err != nil {
		return nil, err
	}
	if sch.network == "" {
		return listenInproc(target)
	}
	ln, err := net.Listen(sch.network, target)
	if err != nil {
		return nil, err
	}
	return netListener{Listener: ln, scheme: name, plane: sch.plane}, nil
}

// netListener is a socket listener under its scheme's name and default plane.
type netListener struct {
	net.Listener
	scheme, plane string
}

func (l netListener) Addr() string         { return l.scheme + "://" + l.Listener.Addr().String() }
func (l netListener) DefaultPlane() string { return l.plane }

// inproc serves dials from the same process through synchronous in-memory
// pipes — no OS socket, no filesystem. Names are process-global.
var inproc = struct {
	sync.Mutex
	lns map[string]*inprocListener
}{lns: make(map[string]*inprocListener)}

func dialInproc(name string) (net.Conn, error) {
	inproc.Lock()
	l := inproc.lns[name]
	inproc.Unlock()
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

func listenInproc(name string) (listener, error) {
	if name == "" {
		return nil, errors.New("transport: inproc listener needs a name")
	}
	inproc.Lock()
	defer inproc.Unlock()
	if _, ok := inproc.lns[name]; ok {
		return nil, fmt.Errorf("transport: inproc name %q already in use", name)
	}
	l := &inprocListener{name: name, ch: make(chan net.Conn), done: make(chan struct{})}
	inproc.lns[name] = l
	return l, nil
}

type inprocListener struct {
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
	inproc.Lock()
	if inproc.lns[l.name] == l {
		delete(inproc.lns, l.name)
	}
	inproc.Unlock()
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *inprocListener) Addr() string         { return "inproc://" + l.name }
func (l *inprocListener) DefaultPlane() string { return schemes["inproc"].plane }
