package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// maxRequest bounds a request line and its headers together. A GET has no
// body, so nothing past them is read.
const (
	maxRequest = 4 << 10
	textPlain  = "text/plain; charset=utf-8"
)

// Serve answers one GET per connection accepted on ln, with Connection:
// close, until Accept fails. It serves /metrics (WritePrometheus),
// /debug/pprof/profile?seconds=N (a CPU profile, N default 30),
// /debug/pprof/trace?seconds=N (an execution trace, N default 1),
// /debug/pprof/<name>?debug=N (any pprof.Lookup profile, N default 0) and
// /debug/pprof/ (their list); a missing or malformed N takes its default.
// Any other path gets 404, any other method 405.
func Serve(ln net.Listener, r *Registry) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go serveConn(c, r)
	}
}

func serveConn(c net.Conn, r *Registry) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	method, target, err := parseRequest(c)
	if err != nil {
		return
	}
	w := &reply{c: c, status: "200 OK", ctype: "application/octet-stream"}
	path, query, _ := strings.Cut(target, "?")
	name, prof := strings.CutPrefix(path, "/debug/pprof/")
	switch {
	case method != "GET":
		w.fail("405 Method Not Allowed", "only GET is served")
	case path == "/metrics":
		w.ctype = "text/plain; version=0.0.4; charset=utf-8"
		err = r.WritePrometheus(w)
	case prof && (name == "profile" || name == "trace"):
		start, stop, secs := pprof.StartCPUProfile, pprof.StopCPUProfile, queryInt(query, "seconds", 30)
		if name == "trace" {
			start, stop, secs = trace.Start, trace.Stop, queryInt(query, "seconds", 1)
		}
		// start fails, before anything is written, while a capture of its
		// kind already runs.
		c.SetDeadline(time.Now().Add(time.Duration(secs+10) * time.Second))
		if err = start(w); err == nil {
			time.Sleep(time.Duration(secs) * time.Second)
			stop()
		}
	case prof && name == "":
		w.ctype = textPlain
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(w, "%s %d\n", p.Name(), p.Count())
		}
		_, err = io.WriteString(w, "profile\ntrace\n")
	case prof && pprof.Lookup(name) != nil:
		debug := queryInt(query, "debug", 0)
		if debug > 0 {
			w.ctype = textPlain
		}
		err = pprof.Lookup(name).WriteTo(w, debug)
	default:
		w.fail("404 Not Found", "not found")
	}
	if err != nil && !w.sent {
		w.fail("500 Internal Server Error", err.Error())
	}
}

// parseRequest reads an HTTP/1.x request line and its headers from rd, at
// most maxRequest bytes in all, and returns the method and the target,
// which starts with '/'. Lines end in CRLF or a bare LF; the headers are
// read only to find their end.
func parseRequest(rd io.Reader) (method, target string, err error) {
	br := bufio.NewReaderSize(io.LimitReader(rd, maxRequest), maxRequest)
	for n := 0; ; n++ {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return "", "", fmt.Errorf("metrics: request cut off or over %d bytes: %w", maxRequest, err)
		}
		line = bytes.TrimSuffix(line[:len(line)-1], []byte("\r"))
		if n == 0 {
			f := bytes.Split(line, []byte(" "))
			if len(f) != 3 || !bytes.HasPrefix(f[1], []byte("/")) || !bytes.HasPrefix(f[2], []byte("HTTP/1.")) {
				return "", "", fmt.Errorf("metrics: malformed request line %q", line)
			}
			method, target = string(f[0]), string(f[1])
		} else if len(line) == 0 {
			return method, target, nil
		}
	}
}

// queryInt returns key's value in a raw query, or def when it is absent or
// not a non-negative integer.
func queryInt(query, key string, def int) int {
	for _, kv := range strings.Split(query, "&") {
		if k, v, _ := strings.Cut(kv, "="); k == key {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				return n
			}
		}
	}
	return def
}

// reply sends the status line and headers in front of the first body byte,
// so a handler that fails before it writes can still answer with an error.
type reply struct {
	c             net.Conn
	status, ctype string
	sent          bool
}

func (w *reply) Write(p []byte) (int, error) {
	if !w.sent {
		w.sent = true
		fmt.Fprintf(w.c, "HTTP/1.1 %s\r\nContent-Type: %s\r\nConnection: close\r\n\r\n", w.status, w.ctype)
	}
	return w.c.Write(p)
}

// fail answers with an error status and msg as the body.
func (w *reply) fail(status, msg string) {
	w.status, w.ctype = status, textPlain
	io.WriteString(w, msg+"\n")
}
