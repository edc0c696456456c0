package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/workloads"
)

// fuzzPipeConn adapts an in-memory pipe to exercise the frame codec.
func fuzzPipeConn(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	_ = a.SetDeadline(time.Now().Add(2 * time.Second))
	_ = b.SetDeadline(time.Now().Add(2 * time.Second))
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// FuzzReadRequest feeds an arbitrary byte stream to Conn.ReadRequest, the
// path every socket client's bytes take, in reads of random sizes (seeded
// by the second input; chunkConn). FuzzReadRequestSocket
// (rawconn_linux_test.go) feeds the same streams through a real socket;
// checkStreamRead holds both to one rule.
func FuzzReadRequest(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, stream []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		a := NewConn(&chunkConn{stream: stream, next: func() int { return 1 + rng.Intn(headerLen+len(stream)) }})
		defer a.Release()
		prefill(t, &a.req)
		got, err := a.ReadRequest()
		checkStreamRead(t, stream, got, err)
	})
}

// addStreamSeeds seeds a stream fuzz target with a byte stream and the seed
// of its chunk sizes.
func addStreamSeeds(f *testing.F) {
	whole, _ := EncodeRequestBinary(nil, Request{Verb: "SND", Session: 7, Data: []byte{1, 2, 3}})
	f.Add(whole, int64(0))
	f.Add(whole[:headerLen-1], int64(1))                                     // truncated header
	f.Add(whole[:len(whole)-1], int64(2))                                    // truncated payload
	f.Add(append([]byte{frameMagic ^ 0xff}, whole[1:]...), int64(3))         // bad magic
	f.Add(append([]byte{frameMagic, kindResponse}, whole[2:]...), int64(4))  // wrong kind
	f.Add([]byte{frameMagic, kindRequest, 0xff, 0xff, 0xff, 0xff}, int64(5)) // oversize
	f.Add([]byte{frameMagic, kindRequest, 0, 0, 0, 0}, int64(6))             // empty payload
	f.Add([]byte(`{"verb":"REQ"}`+"\n"), int64(7))                           // another protocol entirely
	f.Add([]byte{}, int64(8))
}

// checkStreamRead is the rule for one ReadRequest, into a connection whose
// retained request held a rich frame, off a stream that then ended: it must
// not panic or hang; a stream that holds one whole frame must read exactly
// as the bare decoder decodes that frame into a zero value, and anything
// shorter must fail as a truncated frame would.
func checkStreamRead(t *testing.T, stream []byte, got *Request, err error) {
	t.Helper()
	var n uint32
	if len(stream) >= headerLen {
		if n = binary.LittleEndian.Uint32(stream[2:6]); int64(n) <= int64(len(stream)-headerLen) {
			want, werr := decodeRequest(stream[:headerLen+int(n)])
			if (err == nil) != (werr == nil) {
				t.Fatalf("stream read: %v; whole-frame decode: %v", err, werr)
			}
			if err == nil && !requestsEqual(*got, want) {
				t.Fatalf("stream read %+v, whole-frame decode %+v", *got, want)
			}
			return
		}
	}
	if err == nil {
		t.Fatalf("a %d-byte stream short of one frame read as %+v", len(stream), got)
	}
	want := "transport: truncated frame: unexpected EOF"
	switch {
	case len(stream) == 0:
		want = "EOF"
	case len(stream) < headerLen:
		want = "transport: truncated frame header: unexpected EOF"
	case stream[0] != frameMagic || stream[1] != kindRequest || n > MaxFrame:
		return // a bad header fails before any payload is read
	case len(stream) == headerLen:
		want = "transport: truncated frame: EOF"
	}
	if err.Error() != want {
		t.Fatalf("a %d-byte stream short of one frame failed with %q, want %q", len(stream), err, want)
	}
}

// FuzzDecodeRequestBinary feeds arbitrary bytes to the binary request
// decoder: decode must never panic, and every frame the encoder produces
// must decode back equal.
func FuzzDecodeRequestBinary(f *testing.F) {
	seed, _ := EncodeRequestBinary(nil, Request{Verb: "REQ", Session: 3, Rank: 1})
	f.Add(seed)
	withRef, _ := EncodeRequestBinary(nil, Request{Verb: "REQ", Ref: refp("mm", map[string]int{"n": 2048})})
	f.Add(withRef)
	withExt, _ := EncodeRequestBinary(nil, Request{Verb: "REQ", Ref: refp("mm", nil), Priority: 2, Weight: 3})
	f.Add(withExt)
	f.Add([]byte{frameMagic, kindRequest, 0, 0, 0, 0})
	f.Add([]byte{frameMagic, kindRequest, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeRequest(frame) // must not panic
		if err != nil {
			return
		}
		// Anything that decoded cleanly must re-encode and decode stably.
		enc, err := EncodeRequestBinary(nil, req)
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		again, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !requestsEqual(req, again) {
			t.Fatalf("unstable round trip: %+v vs %+v", req, again)
		}
	})
}

// FuzzDecodeResponseBinary feeds arbitrary bytes to the response decoder
// gvmfed and every client run on a daemon's bytes: it must never panic; a
// frame that decodes must decode the same into a value that held a rich
// frame, and re-encode and decode back equal. The seeds are the responses
// a daemon writes: REQ's, a pipelined cycle's BAT with its RCV payload, a
// lone RCV, a failed BAT and an ERR.
func FuzzDecodeResponseBinary(f *testing.F) {
	out := []byte("0123456789abcdef")
	for _, resp := range []Response{
		{Status: "ACK", Session: 1, Plane: PlaneInline, InBytes: 16, OutBytes: 16, VirtualMS: 0.5},
		{Status: "ACK", Batch: []Response{
			{Status: "ACK", Session: 1, VirtualMS: 0.5},
			{Status: "ACK", Session: 1, VirtualMS: 0.5},
			{Status: "ACK", Session: 1, VirtualMS: 0.54},
			{Status: "ACK", Session: 1, VirtualMS: 0.54, Data: out},
		}},
		{Status: "ACK", Session: 2, VirtualMS: 1.25, Data: out},
		{Status: "ACK", Batch: []Response{
			{Status: "ERR", Session: 3, Err: "gvm: session 3: not bound", VirtualMS: 2},
			{Status: "ERR", Session: 3, Err: "transport: skipped after earlier BAT failure"},
		}},
		{Status: "ERR", Err: "transport: unknown session 9"},
	} {
		frame, err := EncodeResponseBinary(nil, resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{frameMagic, kindResponse, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		resp, err := decodeResponse(frame) // must not panic
		var reused Response
		prefill(t, &reused)
		if rerr := DecodeResponseBinaryInto(&reused, frame); (rerr == nil) != (err == nil) {
			t.Fatalf("decode into a zero value: %v; into a reused one: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !responsesEqual(reused, resp) {
			t.Fatalf("decode into a reused value %+v, into a zero value %+v", reused, resp)
		}
		enc, err := EncodeResponseBinary(nil, resp)
		if err != nil {
			t.Fatalf("re-encode of decoded response failed: %v", err)
		}
		again, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !responsesEqual(resp, again) {
			t.Fatalf("unstable round trip: %+v vs %+v", resp, again)
		}
	})
}

// FuzzResponseRoundTrip: any response written must decode back equal, into
// a zero value and into one that held a rich frame alike.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add("ACK", 1, "", "shm", "seg-1", int64(10), int64(20), 1.5, []byte(nil))
	f.Add("ERR", 0, "boom", "", "", int64(0), int64(0), 0.0, []byte{})
	f.Add("ACK", -3, "", "inline", "", int64(-1), int64(1<<40), math.Inf(1), []byte{0xB1, '{', 0})
	f.Fuzz(func(t *testing.T, status string, session int, errStr, plane, seg string, in, out int64, vms float64, data []byte) {
		want := Response{
			Status: status, Session: session, Err: errStr,
			Plane: plane, Segment: seg, InBytes: in, OutBytes: out, VirtualMS: vms,
			Data: data,
		}
		// Loss-free for every float64, including NaN/Inf.
		frame, err := EncodeResponseBinary(nil, want)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		got, err := decodeResponse(frame)
		if err != nil {
			t.Fatalf("binary decode: %v", err)
		}
		if !responsesEqual(got, want) {
			t.Fatalf("binary round trip: got %+v, want %+v", got, want)
		}
		var reused Response
		prefill(t, &reused)
		if err := DecodeResponseBinaryInto(&reused, frame); err != nil {
			t.Fatalf("binary decode into a reused value: %v", err)
		}
		if !responsesEqual(reused, want) {
			t.Fatalf("decode into a reused value: got %+v, want %+v", reused, want)
		}
	})
}

// FuzzFrameSteps feeds every request frame that decodes to the frame rule
// all three carriers share: it must never panic, and whatever it accepts is
// one session's verbs — a lone session verb, or BAT steps that all name the
// session it returns, in strictly increasing cycle order.
func FuzzFrameSteps(f *testing.F) {
	bat := func(subs ...Request) []byte {
		frame, err := EncodeRequestBinary(nil, Request{Verb: "BAT", Batch: subs})
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	f.Add(bat())                                                                   // empty BAT
	f.Add(bat(Request{Verb: "BAT", Session: 1}))                                   // a BAT inside (all of nesting the wire can say)
	f.Add(bat(Request{Verb: "REQ", Session: 1}))                                   // REQ inside
	f.Add(bat(Request{Verb: "SND", Session: 1}, Request{Verb: "STR", Session: 2})) // two sessions
	f.Add(bat(Request{Verb: "SND", Session: 1}, Request{Verb: "SND", Session: 1})) // duplicate verb
	f.Add(bat(Request{Verb: "SND", Session: 1, Data: []byte{1}}, Request{Verb: "STR", Session: 1},
		Request{Verb: "STP", Session: 1}, Request{Verb: "RCV", Session: 1})) // a cycle
	// A lone SUS, a retired verb: no session verb, whatever its session.
	sus := Request{Verb: "SUS", Session: 4}
	if _, _, _, err := FrameSteps(&sus, nil); err == nil || err.Error() != `transport: verb "SUS" is not a session verb` {
		f.Fatalf("FrameSteps on a lone SUS: %v, want not a session verb", err)
	}
	lone, _ := EncodeRequestBinary(nil, sus)
	f.Add(lone)
	f.Fuzz(func(t *testing.T, frame []byte) {
		req, err := decodeRequest(frame)
		if err != nil {
			return
		}
		session, verbs, bat, err := FrameSteps(&req, nil)
		if err != nil {
			return
		}
		if !bat {
			if req.Verb == "BAT" || len(verbs) != 1 || session != req.Session || verbs[0] == gvm.REQ || verbs[0].String() != req.Verb {
				t.Fatalf("lone %+v accepted as session %d, steps %v", req, session, verbs)
			}
			return
		}
		if req.Verb != "BAT" || len(verbs) == 0 || len(verbs) != len(req.Batch) {
			t.Fatalf("%q frame of %d sub-requests accepted as a BAT of %d steps", req.Verb, len(req.Batch), len(verbs))
		}
		for i, sub := range req.Batch {
			if sub.Session != session {
				t.Fatalf("step %d addresses session %d in a frame accepted for session %d", i, sub.Session, session)
			}
			if verbs[i].String() != sub.Verb || verbs[i] < gvm.SND || verbs[i] > gvm.RLS || (i > 0 && verbs[i] <= verbs[i-1]) {
				t.Fatalf("steps %v accepted for %+v", verbs, req.Batch)
			}
		}
	})
}

func refp(name string, params map[string]int) *workloads.Ref {
	return &workloads.Ref{Name: name, Params: params}
}

// requestsEqual and responsesEqual compare every field, Batch by content:
// a decode target keeps its Batch backing, so an empty Batch may be nil or
// not.
func requestsEqual(a, b Request) bool {
	if a.Verb != b.Verb || a.Session != b.Session || a.Rank != b.Rank || a.Plane != b.Plane {
		return false
	}
	if len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !requestsEqual(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	if a.Priority != b.Priority || a.Weight != b.Weight {
		return false
	}
	if !bytesEqualStrict(a.Data, b.Data) {
		return false
	}
	if (a.Ref == nil) != (b.Ref == nil) {
		return false
	}
	if a.Ref == nil {
		return true
	}
	if a.Ref.Name != b.Ref.Name || len(a.Ref.Params) != len(b.Ref.Params) {
		return false
	}
	for k, v := range a.Ref.Params {
		if b.Ref.Params[k] != v {
			return false
		}
	}
	return true
}

func responsesEqual(a, b Response) bool {
	if len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !responsesEqual(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return a.Status == b.Status && a.Session == b.Session && a.Err == b.Err &&
		a.Plane == b.Plane && a.Segment == b.Segment &&
		a.InBytes == b.InBytes && a.OutBytes == b.OutBytes &&
		math.Float64bits(a.VirtualMS) == math.Float64bits(b.VirtualMS) &&
		bytesEqualStrict(a.Data, b.Data)
}

// bytesEqualStrict distinguishes nil from empty: the wire encodes the
// difference, so round trips must preserve it.
func bytesEqualStrict(a, b []byte) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return bytes.Equal(a, b)
}
