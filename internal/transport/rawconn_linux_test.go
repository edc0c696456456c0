//go:build linux

package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// rawPair returns a client and a server Conn joined over the scheme, with
// the server's underlying connection, each under a 10 s deadline.
func rawPair(t *testing.T, scheme string) (client, server *Conn, snc net.Conn) {
	t.Helper()
	addr := map[string]string{
		"unix":   "unix://" + filepath.Join(t.TempDir(), "raw.sock"),
		"tcp":    "tcp://127.0.0.1:0",
		"inproc": "inproc://" + t.Name(),
	}[scheme]
	ln, err := ListenAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, _ := ln.Accept()
		accepted <- nc
	}()
	cnc, _, err := DialAddr(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	snc = <-accepted
	if snc == nil {
		t.Fatal("accept failed")
	}
	client, server = NewConn(cnc), NewConn(snc)
	// A row that breaks fails on this deadline instead of hanging.
	_ = client.SetDeadline(time.Now().Add(10 * time.Second))
	_ = server.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() {
		client.Close()
		server.Close()
		client.Release()
		server.Release()
	})
	return client, server, snc
}

// TestRawConn holds every framed socket to net.Conn's behaviour on the
// raw non-blocking syscall path (rawconn_linux.go), and inproc's pipe,
// which has no fd, to the same table.
func TestRawConn(t *testing.T) {
	big := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(big)
	rows := []struct {
		name string
		run  func(t *testing.T, scheme string)
	}{
		{"takes the raw path over a socket", func(t *testing.T, scheme string) {
			client, server, snc := rawPair(t, scheme)
			want := scheme != "inproc"
			for _, c := range []*Conn{client, server} {
				if got := c.raw.rc != nil; got != want {
					t.Fatalf("NewConn over %T: raw path %v, want %v", c.c, got, want)
				}
			}
			switch snc.(type) {
			case *net.UnixConn, *net.TCPConn:
				if !want {
					t.Fatalf("inproc accepted a %T", snc)
				}
			default:
				if want {
					t.Fatalf("%s accepted a %T, not a socket", scheme, snc)
				}
			}
		}},
		{"read deadline", func(t *testing.T, scheme string) {
			_, server, _ := rawPair(t, scheme)
			_ = server.SetDeadline(time.Now().Add(50 * time.Millisecond))
			start := time.Now()
			_, err := server.ReadRequest()
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("read past its deadline: %v, want a deadline error", err)
			}
			var oe *net.OpError // a socket's error names its op, as net.Conn's does
			if scheme != "inproc" && (!errors.As(err, &oe) || oe.Op != "read") {
				t.Fatalf("read past its deadline: %#v, want a *net.OpError of op read", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("deadline error after %v", d)
			}
		}},
		{"write deadline with the socket buffer full", func(t *testing.T, scheme string) {
			client, _, _ := rawPair(t, scheme)
			_ = client.SetDeadline(time.Now().Add(100 * time.Millisecond))
			var err error
			for i := 0; i < 64 && err == nil; i++ { // the peer never reads
				err = client.WriteRequest(&Request{Verb: "SND", Session: 1, Data: big[:1<<20]})
			}
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("write to a peer that does not read: %v, want a deadline error", err)
			}
		}},
		{"Close while a read is parked", func(t *testing.T, scheme string) {
			_, server, _ := rawPair(t, scheme)
			done := make(chan error, 1)
			go func() {
				_, err := server.ReadRequest()
				done <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the read park
			server.Close()
			want := net.ErrClosed
			if scheme == "inproc" {
				want = io.ErrClosedPipe // net.Pipe's word for it
			}
			select {
			case err := <-done:
				if !errors.Is(err, want) {
					t.Fatalf("parked read after Close: %v, want %v", err, want)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close did not wake a parked read")
			}
		}},
		{"8 MiB SND and RCV round trip byte-identical", func(t *testing.T, scheme string) {
			client, server, _ := rawPair(t, scheme)
			echoed := make(chan error, 1)
			go func() {
				req, err := server.ReadRequest()
				if err == nil {
					err = server.WriteResponse(&Response{Status: "ACK", Session: req.Session, Data: req.Data})
				}
				echoed <- err
			}()
			if err := client.WriteRequest(&Request{Verb: "SND", Session: 3, Data: big}); err != nil {
				t.Fatal(err)
			}
			resp, err := client.ReadResponse()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-echoed; err != nil {
				t.Fatal(err)
			}
			if resp.Session != 3 || !bytes.Equal(resp.Data, big) {
				t.Fatalf("8 MiB echo: session %d, %d bytes back, equal %v", resp.Session, len(resp.Data), bytes.Equal(resp.Data, big))
			}
		}},
		{"peer hangs up mid-frame", func(t *testing.T, scheme string) {
			client, server, _ := rawPair(t, scheme)
			frame, err := EncodeRequestBinary(nil, Request{Verb: "SND", Session: 1, Data: big[:64<<10]})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				_, _ = client.c.Write(frame[:len(frame)/2])
				client.Close()
			}()
			_, err = server.ReadRequest()
			if want := "transport: truncated frame: unexpected EOF"; err == nil || err.Error() != want {
				t.Fatalf("read of half a frame: %v, want %q", err, want)
			}
		}},
	}
	for _, row := range rows {
		for _, scheme := range []string{"unix", "tcp", "inproc"} {
			t.Run(fmt.Sprintf("%s/%s", row.name, scheme), func(t *testing.T) { row.run(t, scheme) })
		}
	}
}

// FuzzReadRequestSocket is FuzzReadRequest over a real socket: the stream
// goes into one end of a unix socketpair in writes of random sizes (seeded
// by the second input), then that end closes; the other end reads through
// NewConn, on the raw path, under the same rule.
func FuzzReadRequestSocket(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, stream []byte, seed int64) {
		w, r := socketPair(t)
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			defer w.Close()
			rng := rand.New(rand.NewSource(seed))
			for rest := stream; len(rest) > 0; {
				n := min(len(rest), 1+rng.Intn(headerLen+len(stream)))
				if _, err := w.Write(rest[:n]); err != nil {
					return // the reader is done with the stream
				}
				rest = rest[n:]
			}
		}()
		a := NewConn(r)
		defer func() {
			a.Close()
			<-wrote
			a.Release()
		}()
		prefill(t, &a.req)
		got, err := a.ReadRequest()
		checkStreamRead(t, stream, got, err)
	})
}
