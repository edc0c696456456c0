package metrics

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// promMeta matches a # HELP or # TYPE line of the text format.
var promMeta = regexp.MustCompile(`^# (HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*|TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))$`)

// serveLoopback runs Serve on a loopback listener that the test closes,
// and returns its address.
func serveLoopback(t *testing.T, r *Registry) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- Serve(ln, r) }()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// roundTrip sends req as raw bytes on a fresh connection and reads the
// answer the way Go's HTTP client does.
func roundTrip(t *testing.T, addr, req string) (*http.Response, []byte, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Under the server's 10 s read deadline, so a server that a silent
	// client can stall fails the row instead of answering late.
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		return nil, nil, err
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func get(path string) string {
	return "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nUser-Agent: Go-http-client/1.1\r\n\r\n"
}

// TestServe drives the -metrics listener over loopback, one row per thing
// a scraper, `go tool pprof` or a misbehaving client sends it.
func TestServe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "requests served", L("verb", "SND")).Add(3)
	reg.Gauge("open_sessions", "live sessions").Set(2)
	reg.Histogram("served_ns", "latency", L("verb", "SND")).Observe(700)
	addr := serveLoopback(t, reg)
	gzip := func(t *testing.T, body []byte) {
		if !bytes.HasPrefix(body, []byte{0x1f, 0x8b}) {
			t.Errorf("body starts % x, want gzip magic 1f 8b", body[:min(len(body), 4)])
		}
	}
	for _, tc := range []struct {
		name   string
		setup  func(t *testing.T) (undo func())
		req    string
		status int // 0: the connection closes without an answer
		ctype  string
		check  func(t *testing.T, body []byte)
	}{
		{name: "metrics", req: get("/metrics"), status: 200, ctype: "text/plain; version=0.0.4",
			check: func(t *testing.T, body []byte) {
				for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
					if !promLine.MatchString(line) && !promMeta.MatchString(line) {
						t.Errorf("malformed text-format line %q", line)
					}
				}
				if !bytes.Contains(body, []byte(`served_total{verb="SND"} 3`+"\n")) {
					t.Errorf("no served_total sample in:\n%s", body)
				}
			}},
		{name: "allocs-debug", req: get("/debug/pprof/allocs?debug=1"), status: 200, ctype: "text/plain",
			check: func(t *testing.T, body []byte) {
				if !bytes.Contains(body, []byte("\n# Mallocs = ")) {
					t.Error("no # Mallocs = line in the MemStats trailer")
				}
			}},
		{name: "heap", req: get("/debug/pprof/heap"), status: 200, ctype: "application/octet-stream", check: gzip},
		{name: "cpu-profile", req: get("/debug/pprof/profile?seconds=1"), status: 200, ctype: "application/octet-stream", check: gzip},
		{name: "index", req: get("/debug/pprof/"), status: 200, ctype: "text/plain",
			check: func(t *testing.T, body []byte) {
				if !bytes.Contains(body, []byte("\nprofile\n")) || !bytes.Contains(body, []byte("heap ")) {
					t.Errorf("index lists no heap or profile:\n%s", body)
				}
			}},
		{name: "unknown-path", req: get("/nope"), status: 404},
		{name: "malformed-debug", req: get("/debug/pprof/heap?debug=x"), status: 200, ctype: "application/octet-stream", check: gzip},
		{name: "post", req: "POST /metrics HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n", status: 405},
		{name: "request-over-4KiB", req: "GET /" + strings.Repeat("a", maxRequest) + " HTTP/1.1\r\n\r\n"},
		{name: "bare-LF", req: "GET /metrics HTTP/1.0\n\n", status: 200},
		{name: "silent-client", req: get("/metrics"), status: 200,
			setup: func(t *testing.T) func() {
				idle, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				return func() { idle.Close() }
			}},
		{name: "second-cpu-profile", req: get("/debug/pprof/profile?seconds=1"), status: 500,
			setup: func(t *testing.T) func() {
				if err := pprof.StartCPUProfile(io.Discard); err != nil {
					t.Fatal(err)
				}
				return pprof.StopCPUProfile
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.setup != nil {
				defer tc.setup(t)()
			}
			resp, body, err := roundTrip(t, addr, tc.req)
			if tc.status == 0 {
				if err == nil {
					t.Fatalf("answered %s, want the connection closed", resp.Status)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %s, want %d; body %q", resp.Status, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.ctype) {
				t.Errorf("Content-Type %q, want prefix %q", ct, tc.ctype)
			}
			if !resp.Close {
				t.Error("no Connection: close")
			}
			if tc.check != nil {
				tc.check(t, body)
			}
		})
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// FuzzParseRequest holds parseRequest to its bound on any input: it never
// panics, never reads more than maxRequest bytes, and returns only a
// target that starts with '/'.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		// Go's http.Client, as bench/gvmload sends it.
		"GET /debug/pprof/allocs?debug=1 HTTP/1.1\r\nHost: 127.0.0.1:9090\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		// curl.
		"GET /metrics HTTP/1.1\r\nHost: 127.0.0.1:9090\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		// go tool pprof http://…/debug/pprof/profile.
		"GET /debug/pprof/profile?seconds=30 HTTP/1.1\r\nHost: 127.0.0.1:9090\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"GET /metrics HTTP/1.0\n\n",
		"GET /metrics HTTP/1.1\r\nHost: x\r\n",
		"GET /metrics HTTP/1.1\r\n",
		"GET /metr",
		"POST /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
		"GET http://host/metrics HTTP/1.1\r\n\r\n",
		"GET  /metrics HTTP/1.1\r\n\r\n",
		"\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cr := &countingReader{r: bytes.NewReader(in)}
		_, target, err := parseRequest(cr)
		if cr.n > maxRequest {
			t.Fatalf("read %d bytes, bound is %d", cr.n, maxRequest)
		}
		if err == nil && !strings.HasPrefix(target, "/") {
			t.Fatalf("accepted target %q", target)
		}
	})
}
