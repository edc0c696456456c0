package transport

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"

	"gpuvirt/internal/metrics"
)

// Door is the one front door of gvmd and gvmfed: it binds their listen
// addresses, accepts, checks each connection's preamble, reads its frames
// and hangs it up. Its owner says only how one frame is answered and what a
// hang-up releases. The door keeps the set of connections it accepted, and
// Close ends every one of them.
type Door struct {
	lns    []listener
	answer func(c *Conn, cs *ConnState, req *Request) bool
	hangUp func(cs *ConnState)
	log    *slog.Logger

	connections *metrics.Gauge   // live client connections
	disconnects *metrics.Counter // connections that have ended
	frameErrors *metrics.Counter // bad preambles, non-EOF read errors

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // entered at accept, before the preamble is read
	closed bool
	wg     sync.WaitGroup // the accept loops and every connection's goroutine
}

// Serve binds every address of addrs and serves each connection accepted on
// them in a goroutine of its own: past a good preamble, answer gets every
// frame read (it writes the answer itself; false hangs up), and once the
// connection has ended, hangUp releases what it owned. The connection
// instruments go to reg, and a bad preamble or frame read to log (nil: none).
func Serve(addrs []string, reg *metrics.Registry, log *slog.Logger, answer func(c *Conn, cs *ConnState, req *Request) bool, hangUp func(cs *ConnState)) (*Door, error) {
	d := &Door{
		answer: answer, hangUp: hangUp, log: log,
		connections: reg.Gauge("ipc_connections", "live client connections"),
		disconnects: reg.Counter("ipc_disconnects_total", "client connections ended"),
		frameErrors: reg.Counter("ipc_frame_errors_total", "bad preambles and non-EOF frame read errors"),
		conns:       make(map[net.Conn]struct{}),
	}
	for _, addr := range addrs {
		ln, err := listen(addr)
		if err != nil {
			for _, ln := range d.lns {
				ln.Close()
			}
			return nil, fmt.Errorf("listen %s: %w", addr, err)
		}
		d.lns = append(d.lns, ln)
	}
	d.wg.Add(len(d.lns))
	for _, ln := range d.lns {
		go d.accept(ln)
	}
	return d, nil
}

// Addrs returns every bound address in URL form, in the order given to
// Serve: with tcp://...:0 the port is the one the OS picked.
func (d *Door) Addrs() []string {
	addrs := make([]string, len(d.lns))
	for i, ln := range d.lns {
		addrs[i] = ln.Addr()
	}
	return addrs
}

// Close closes the listeners and every connection, and returns once each
// connection's goroutine has ended, its hang-up included: a closed door
// answers nothing. A frame whose answer waits on something only its owner
// can end (a frame parked at a barrier) holds Close until the owner ends it.
func (d *Door) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	var err error
	for _, ln := range d.lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	for nc := range d.conns {
		nc.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	return err
}

func (d *Door) accept(ln listener) {
	defer d.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			nc.Close()
			return
		}
		d.conns[nc] = struct{}{}
		d.wg.Add(1)
		d.mu.Unlock()
		go d.serve(nc, ln.DefaultPlane())
	}
}

// serve runs one connection from its preamble to its hang-up.
func (d *Door) serve(nc net.Conn, defaultPlane string) {
	defer func() {
		d.mu.Lock()
		delete(d.conns, nc)
		d.mu.Unlock()
		d.wg.Done()
	}()
	if err := readPreamble(nc); err != nil {
		if errors.Is(err, io.EOF) || d.closing() {
			nc.Close()
			return
		}
		if d.log != nil {
			d.log.Error("bad preamble", "err", err)
		}
		d.frameErrors.Inc()
		rejectConn(nc)
		return
	}
	conn := NewConn(nc)
	d.connections.Inc()
	cs := &ConnState{DefaultPlane: defaultPlane}
	for {
		req, err := conn.ReadRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) && !d.closing() {
				if d.log != nil {
					d.log.Error("frame read", "err", err)
				}
				d.frameErrors.Inc()
			}
			break
		}
		if !d.answer(conn, cs, req) {
			break
		}
	}
	d.hangUp(cs)
	conn.Close()
	// This goroutine is the connection's only reader and its read loop has
	// exited, so the pooled read buffer can go back.
	conn.Release()
	d.connections.Dec()
	d.disconnects.Inc()
}

// closing reports whether Close has begun: a read it broke is no frame error.
func (d *Door) closing() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}
