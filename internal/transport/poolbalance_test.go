package transport

import (
	"errors"
	"net"
	"strings"
	"testing"
)

// poolDelta runs fn and returns how far the pool's get/put balance moved:
// 0 means every buffer fn drew was returned (or was never pooled).
func poolDelta(t *testing.T, fn func()) int64 {
	t.Helper()
	g0, p0, _, _ := PoolStats()
	fn()
	g1, p1, _, _ := PoolStats()
	return (g1 - g0) - (p1 - p0)
}

// TestPoolBalanceRoundTrips drives frames of several size classes —
// inline, external (> inlineDataThreshold), and above rbufHighWater so
// the read buffer swaps both up and back down — and asserts the pool
// get/put counters balance once both connection ends are released.
func TestPoolBalanceRoundTrips(t *testing.T) {
	delta := poolDelta(t, func() {
		cc, sc := net.Pipe()
		client, server := NewConn(cc), NewConn(sc)
		done := make(chan error, 1)
		go func() {
			var werr error
			for werr == nil {
				req, err := server.ReadRequest()
				if err != nil {
					break // client closed
				}
				werr = server.WriteResponse(&Response{Status: "ACK", Data: req.Data})
			}
			server.Release() // before done: the balance is read right after it
			done <- werr
		}()
		for _, n := range []int{16, 4097, rbufHighWater + 1, 64, 1 << 16} {
			payload := make([]byte, n)
			payload[0], payload[n-1] = 0xab, 0xcd
			if err := client.WriteRequest(&Request{Verb: "SND", Session: 1, Data: payload}); err != nil {
				t.Errorf("write %d bytes: %v", n, err)
				break
			}
			resp, err := client.ReadResponse()
			if err != nil {
				t.Errorf("read %d bytes: %v", n, err)
				break
			}
			if len(resp.Data) != n || resp.Data[0] != 0xab || resp.Data[n-1] != 0xcd {
				t.Errorf("echo of %d bytes corrupted", n)
				break
			}
		}
		client.Close()
		server.Close()
		if err := <-done; err != nil {
			t.Errorf("server: %v", err)
		}
		client.Release()
	})
	if delta != 0 {
		t.Fatalf("pool leaked %d buffers across round trips", delta)
	}
}

// TestPoolBalanceTruncatedFrame kills the connection mid-payload: the
// reader has already drawn a pool buffer for the declared length, and
// Release must still return it.
func TestPoolBalanceTruncatedFrame(t *testing.T) {
	delta := poolDelta(t, func() {
		cc, sc := net.Pipe()
		server := NewConn(sc)
		go func() {
			frame, err := EncodeRequestBinary(nil, Request{Verb: "SND", Session: 1, Data: make([]byte, 4096)})
			if err != nil {
				t.Error(err)
				cc.Close()
				return
			}
			cc.Write(frame[:len(frame)/2])
			cc.Close()
		}()
		if _, err := server.ReadRequest(); err == nil {
			t.Error("truncated frame did not error")
		}
		server.Close()
		server.Release()
	})
	if delta != 0 {
		t.Fatalf("pool leaked %d buffers on a truncated frame", delta)
	}
}

// TestEncodeErrorLeavesEncoderClean asserts the nested-batch encode error
// clears the encoder's aliases (no caller payload stays pinned) and the
// connection still frames correctly afterwards.
func TestEncodeErrorLeavesEncoderClean(t *testing.T) {
	cc, sc := net.Pipe()
	client, server := NewConn(cc), NewConn(sc)
	defer func() {
		client.Close()
		server.Close()
		client.Release()
		server.Release()
	}()
	payload := make([]byte, 8192) // external segment: aliased, not copied
	bad := Request{Verb: "BAT", Batch: []Request{{
		Verb: "BAT", Data: payload, Batch: []Request{{Verb: "SND"}},
	}}}
	err := client.WriteRequest(&bad)
	if err == nil || !strings.Contains(err.Error(), "nested batch") {
		t.Fatalf("err = %v, want nested-batch error", err)
	}
	if len(client.we.segs) != 0 {
		t.Fatalf("encoder retained %d segments after a failed encode", len(client.we.segs))
	}
	for i, b := range client.we.iovBuf[:cap(client.we.iovBuf)] {
		if b != nil {
			t.Fatalf("iovBuf[%d] still aliases a payload after a failed encode", i)
		}
	}
	// The same connection must produce a correct next frame.
	go func() {
		req, err := server.ReadRequest()
		if err != nil {
			t.Error(err)
			return
		}
		server.WriteResponse(&Response{Status: "ACK", Session: req.Session})
	}()
	if err := client.WriteRequest(&Request{Verb: "STP", Session: 7}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.ReadResponse()
	if err != nil || resp.Session != 7 {
		t.Fatalf("round trip after failed encode: resp=%+v err=%v", resp, err)
	}
}

// failAfterWriter errors every Write after the first n calls, simulating
// a connection dying mid-writev.
type failAfterWriter struct {
	net.Conn
	n int
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("injected write failure")
	}
	f.n--
	return f.Conn.Write(p)
}

// TestShortWriteClearsAliases forces the writev path to die partway
// through a multi-segment frame and asserts the encoder drops its
// payload aliases anyway.
func TestShortWriteClearsAliases(t *testing.T) {
	cc, sc := net.Pipe()
	defer sc.Close()
	go func() { // drain whatever the first Write delivers
		buf := make([]byte, 1<<16)
		for {
			if _, err := sc.Read(buf); err != nil {
				return
			}
		}
	}()
	client := NewConn(&failAfterWriter{Conn: cc, n: 1})
	defer func() {
		client.Close()
		client.Release()
	}()
	payload := make([]byte, 8192) // forces the multi-segment writev path
	if err := client.WriteRequest(&Request{Verb: "SND", Session: 1, Data: payload}); err == nil {
		t.Fatal("injected write failure did not surface")
	}
	if len(client.we.segs) != 0 {
		t.Fatalf("encoder retained %d segments after a short write", len(client.we.segs))
	}
	for i, b := range client.we.iovBuf[:cap(client.we.iovBuf)] {
		if b != nil {
			t.Fatalf("iovBuf[%d] still aliases a payload after a short write", i)
		}
	}
}
