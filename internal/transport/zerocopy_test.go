package transport

import (
	"bytes"
	"net"
	"testing"

	"gpuvirt/internal/workloads"
)

// connPair returns two binary-codec Conns joined by an in-memory pipe.
func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestBatchRequestRoundTrip(t *testing.T) {
	req := Request{
		Verb: "BAT",
		Batch: []Request{
			{Verb: "SND", Session: 7, Data: []byte("payload-bytes")},
			{Verb: "STR", Session: 7},
			{Verb: "STP", Session: 7},
			{Verb: "RCV", Session: 7},
		},
	}
	frame, err := EncodeRequestBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verb != "BAT" || len(got.Batch) != 4 {
		t.Fatalf("decoded %q with %d subs", got.Verb, len(got.Batch))
	}
	for i, want := range req.Batch {
		sub := got.Batch[i]
		if sub.Verb != want.Verb || sub.Session != want.Session || !bytes.Equal(sub.Data, want.Data) {
			t.Fatalf("sub %d: got %+v want %+v", i, sub, want)
		}
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	resp := Response{
		Status: "ACK",
		Batch: []Response{
			{Status: "ACK", Session: 7, VirtualMS: 1.5},
			{Status: "ERR", Session: 7, Err: "boom"},
			{Status: "ACK", Session: 7, Data: []byte{1, 2, 3}},
		},
	}
	frame, err := EncodeResponseBinary(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != "ACK" || len(got.Batch) != 3 {
		t.Fatalf("decoded %q with %d subs", got.Status, len(got.Batch))
	}
	if got.Batch[1].Err != "boom" || got.Batch[2].Data[2] != 3 {
		t.Fatalf("sub responses corrupted: %+v", got.Batch)
	}
}

// TestNonBatchFrameBytesUnchanged pins the wire compatibility guarantee:
// a single-verb frame must be byte-identical to the pre-batch format (no
// batch section appended), so legacy peers can decode it.
func TestNonBatchFrameBytesUnchanged(t *testing.T) {
	req := Request{Verb: "SND", Session: 3, Data: []byte("abc")}
	frame, err := EncodeRequestBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-built pre-batch layout: header, verb, session, rank, no-ref,
	// empty plane, data presence + len + bytes — and nothing after.
	want := []byte{
		frameMagic, kindRequest, 13, 0, 0, 0,
		3, 'S', 'N', 'D', // verb
		6,    // session 3 zigzag
		0,    // rank 0
		0,    // no ref
		0,    // plane ""
		1, 3, // data present, 3 bytes
		'a', 'b', 'c',
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("single-verb frame changed:\n got %v\nwant %v", frame, want)
	}
}

func TestNestedBatchRejected(t *testing.T) {
	req := Request{Verb: "BAT", Batch: []Request{
		{Verb: "BAT", Batch: []Request{{Verb: "SND"}}},
	}}
	if _, err := EncodeRequestBinary(nil, req); err == nil {
		t.Fatal("nested batch encoded")
	}
}

// TestHotPathZeroAlloc asserts the acceptance criterion for pooled
// zero-copy framing: a warm SND/RCV round trip (write request with
// payload, echo peer reads it and responds with a payload, read the
// response) allocates nothing on either side.
func TestHotPathZeroAlloc(t *testing.T) {
	client, server := connPair(t)
	const n = 64 << 10
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	echoErr := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(echoErr)
		for {
			req, err := server.ReadRequest()
			if err != nil {
				select {
				case <-done:
				default:
					echoErr <- err
				}
				return
			}
			// Respond with the request's payload (aliases the read
			// buffer, exactly as the daemon's zero-copy RCV path does).
			if err := server.WriteResponse(&Response{Status: "ACK", Session: req.Session, Data: req.Data}); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	roundTrip := func() {
		if err := client.WriteRequest(&Request{Verb: "SND", Session: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
		resp, err := client.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != "ACK" || len(resp.Data) != n {
			t.Fatalf("echo came back %q with %d bytes", resp.Status, len(resp.Data))
		}
	}
	for i := 0; i < 4; i++ {
		roundTrip() // warm the pools and retained buffers
	}
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 0 {
		t.Fatalf("warm SND/RCV round trip allocates %.1f objects/op, want 0", allocs)
	}
	close(done)
	client.Close()
	if err := <-echoErr; err != nil {
		t.Fatal(err)
	}
}

// TestReadBufferShrinks covers the rbuf high-water satellite: one giant
// frame must not pin a giant read buffer for the connection's lifetime.
func TestReadBufferShrinks(t *testing.T) {
	client, server := connPair(t)
	go func() {
		big := Request{Verb: "SND", Session: 1, Data: make([]byte, 4<<20)}
		_ = client.WriteRequest(&big)
		_ = client.WriteRequest(&Request{Verb: "STR", Session: 1})
	}()
	if _, err := server.ReadRequest(); err != nil {
		t.Fatal(err)
	}
	if cap(server.rbuf) < 4<<20 {
		t.Fatalf("rbuf cap %d after a 4 MiB frame", cap(server.rbuf))
	}
	if _, err := server.ReadRequest(); err != nil {
		t.Fatal(err)
	}
	if cap(server.rbuf) > rbufHighWater {
		t.Fatalf("rbuf cap %d retained above the %d high-water mark", cap(server.rbuf), rbufHighWater)
	}
}

func TestBufPoolClasses(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 512}, {1, 512}, {512, 512}, {513, 1024},
		{1 << 20, 1 << 20}, {(1 << 20) + 1, 2 << 20}, {MaxFrame, MaxFrame},
	}
	for _, c := range cases {
		b := getBuf(c.n)
		if len(b) != c.n || cap(b) != c.wantCap {
			t.Errorf("getBuf(%d) = len %d cap %d, want len %d cap %d", c.n, len(b), cap(b), c.n, c.wantCap)
		}
		putBuf(b)
	}
	// Oversized buffers fall back to plain allocation and are not pooled.
	huge := getBuf(MaxFrame + 1)
	if len(huge) != MaxFrame+1 {
		t.Fatalf("oversized getBuf len %d", len(huge))
	}
	putBuf(huge) // must not panic or pool it
}

// TestInterning pins that every protocol constant — verb, status, plane —
// decodes to its canonical string without allocating, in every string
// field of a request and a response, and that other strings, a 3-byte one
// included, still round-trip.
func TestInterning(t *testing.T) {
	constants := []string{
		"REQ", "SND", "STR", "STP", "RCV", "RLS", "BAT", "STA", "MIG", "ADP",
		"ACK", "WAIT", "ERR",
		PlaneShm, PlaneInline, PlaneRing,
	}
	var req Request
	var resp Response
	for _, k := range constants {
		qf, err := EncodeRequestBinary(nil, Request{Verb: k, Plane: k})
		if err != nil {
			t.Fatal(err)
		}
		sf, err := EncodeResponseBinary(nil, Response{Status: k, Err: k, Plane: k, Segment: k})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := DecodeRequestBinaryInto(&req, qf); err != nil {
				t.Fatal(err)
			}
			if err := DecodeResponseBinaryInto(&resp, sf); err != nil {
				t.Fatal(err)
			}
		})
		if req.Verb != k || req.Plane != k || resp.Status != k || resp.Err != k || resp.Plane != k || resp.Segment != k {
			t.Fatalf("%q decoded as %+v / %+v", k, req, resp)
		}
		if allocs != 0 {
			t.Errorf("%q decodes with %.0f allocations, want 0: not interned", k, allocs)
		}
	}
	for _, want := range []Request{
		{Verb: "XYZ", Session: 2, Plane: "XYZ"},
		{Verb: "RCV", Session: 2, Plane: PlaneInline, Ref: &workloads.Ref{Name: "very-custom-workload"}},
	} {
		frame, err := EncodeRequestBinary(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !requestsEqual(got, want) {
			t.Fatalf("decoded %+v, want %+v", got, want)
		}
	}
}

// BenchmarkIPCPipeRoundTrip measures the warm wire hot path (64 KiB SND
// echo over an in-memory pipe) with allocation reporting; the PR3
// acceptance number is 0 allocs/op.
func BenchmarkIPCPipeRoundTrip(b *testing.B) {
	a, peer := net.Pipe()
	client, server := NewConn(a), NewConn(peer)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			req, err := server.ReadRequest()
			if err != nil {
				return
			}
			if err := server.WriteResponse(&Response{Status: "ACK", Data: req.Data}); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.WriteRequest(&Request{Verb: "SND", Session: 1, Data: payload}); err != nil {
			b.Fatal(err)
		}
		if _, err := client.ReadResponse(); err != nil {
			b.Fatal(err)
		}
	}
}
