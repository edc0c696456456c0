//go:build linux

package transport

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// rawConn moves a socket's frames by raw non-blocking syscalls under the
// netpoller (DESIGN §3): with syscall.Syscall, sysmon hands a one-CPU
// process's P to a second thread while a write that woke the peer is
// preempted in the call. A non-blocking call never blocks and moves at
// most one socket buffer; on EAGAIN a callback returns false and RawConn
// parks the goroutine, so deadlines and Close work as for net.Conn.
type rawConn struct {
	rc              syscall.RawConn       // nil: no fd (inproc's pipe), net.Conn calls
	readFn, writeFn func(fd uintptr) bool // bound once: a frame allocates nothing
	rb              []byte                // what read fills
	rn              int
	wq              [][]byte // the frame's unwritten rest
	iov             []syscall.Iovec
	rerr, werr      error // a read and a write may run at once
}

// bindRaw takes the raw path when nc is backed by a file descriptor.
func (c *Conn) bindRaw(nc net.Conn) {
	if sc, ok := nc.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			c.raw.rc = rc
			c.raw.readFn, c.raw.writeFn = c.raw.read, c.raw.writev
		}
	}
}

// readSome reads what is ready into p (len(p) > 0): at least one byte.
func (c *Conn) readSome(p []byte) (int, error) {
	r := &c.raw
	if r.rc == nil {
		return c.c.Read(p)
	}
	r.rb, r.rn, r.rerr = p, 0, nil
	err := r.rc.Read(r.readFn)
	r.rb = nil
	return r.rn, c.opError("read", err, r.rerr)
}

// flush writes the encoder's whole frame, c.we.iov.
func (c *Conn) flush() error {
	r := &c.raw
	if r.rc == nil {
		return c.flushConn()
	}
	r.wq, r.werr = c.we.iov, nil
	err := r.rc.Write(r.writeFn)
	r.wq = nil
	return c.opError("write", err, r.werr)
}

func (r *rawConn) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.rb[0])), uintptr(len(r.rb)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
			if r.rn = int(n); n == 0 {
				r.rerr = io.EOF
			}
		default:
			r.rerr = os.NewSyscallError("read", e)
		}
		return true
	}
}

// writev writes r.wq; after a partial write it resumes where it stopped.
func (r *rawConn) writev(fd uintptr) bool {
	for {
		iov := r.iov[:0]
		for _, b := range r.wq {
			if len(b) > 0 && len(iov) < 1024 { // IOV_MAX, the most one writev takes
				iov = append(iov, syscall.Iovec{Base: &b[0]})
				iov[len(iov)-1].SetLen(len(b))
			}
		}
		if len(iov) == 0 {
			return true
		}
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		clear(iov) // pin no payload past the call
		r.iov = iov[:0]
		switch e {
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		case 0:
			for left := int(n); left > 0; r.wq = r.wq[1:] {
				if left < len(r.wq[0]) {
					r.wq[0] = r.wq[0][left:]
					break
				}
				left -= len(r.wq[0])
			}
		default:
			r.werr = os.NewSyscallError("writev", e)
			return true
		}
	}
}

// opError is the error of a RawConn call (err) or else of its callback
// (cbErr), in net.Conn's form: RawConn names its own "raw-read"/"raw-write",
// and a callback's syscall error arrives bare.
func (c *Conn) opError(op string, err, cbErr error) error {
	if err == nil {
		err = cbErr
	}
	switch e := err.(type) {
	case *net.OpError:
		e.Op = op
	case *os.SyscallError:
		err = &net.OpError{Op: op, Net: c.c.LocalAddr().Network(), Source: c.c.LocalAddr(), Addr: c.c.RemoteAddr(), Err: e}
	}
	return err
}
