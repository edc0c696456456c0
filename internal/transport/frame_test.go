package transport

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// decodeRequest and decodeResponse parse one whole frame into a fresh value.
func decodeRequest(frame []byte) (Request, error) {
	var req Request
	err := DecodeRequestBinaryInto(&req, frame)
	return req, err
}

func decodeResponse(frame []byte) (Response, error) {
	var resp Response
	err := DecodeResponseBinaryInto(&resp, frame)
	return resp, err
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Verb: "REQ", Ref: refp("mm", map[string]int{"n": 2048, "nit": 3}), Rank: 7},
		{Verb: "REQ", Ref: refp("blackscholes", nil), Plane: PlaneInline},
		{Verb: "SND", Session: 42},
		{Verb: "SND", Session: 7, Data: []byte{1, 2, 3, 0xff}},
		{Verb: "SND", Session: 8, Data: []byte{}}, // empty != nil on the wire
		{Verb: "STP", Session: -1},
		{},
	}
	a, b := fuzzPipeConn(t)
	for _, want := range reqs {
		want := want
		// Join the writer before the next iteration reuses the conn: a
		// Conn is single-writer, and WriteRequest still touches encoder
		// state after the pipe's read unblocks.
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			if err := a.WriteRequest(&want); err != nil {
				t.Errorf("write %+v: %v", want, err)
			}
		}()
		got, err := b.ReadRequest()
		if err != nil {
			t.Fatalf("read %+v: %v", want, err)
		}
		<-wrote
		if !requestsEqual(*got, want) {
			t.Fatalf("round trip: got %+v, want %+v", *got, want)
		}
	}
}

func TestBinaryRequestExtensionRoundTrip(t *testing.T) {
	reqs := []Request{
		{Verb: "REQ", Ref: refp("mm", map[string]int{"n": 64}), Weight: 1 << 30},
		{Verb: "REQ", Ref: refp("mm", nil), Priority: 7},
		{Verb: "REQ", Ref: refp("mm", nil), Priority: -2},
		{Verb: "REQ", Ref: refp("mm", nil), Weight: 8},
		{Verb: "REQ", Ref: refp("mm", nil), Priority: 3, Weight: 4},
		{Verb: "BAT", Priority: 96 << 10, Batch: []Request{
			{Verb: "SND", Session: 4, Data: []byte{9}},
			{Verb: "STR", Session: 4},
		}},
	}
	for _, want := range reqs {
		frame, err := EncodeRequestBinary(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeRequest(frame)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		// requestsEqual covers Priority/Weight, but assert them directly
		// too: they are the fields under test.
		if got.Priority != want.Priority || got.Weight != want.Weight {
			t.Fatalf("extensions lost: got prio=%d weight=%d, want prio=%d weight=%d",
				got.Priority, got.Weight, want.Priority, want.Weight)
		}
		if !requestsEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		if len(got.Batch) != len(want.Batch) {
			t.Fatalf("batch length: got %d, want %d", len(got.Batch), len(want.Batch))
		}
		for i := range want.Batch {
			if !requestsEqual(got.Batch[i], want.Batch[i]) {
				t.Fatalf("batch[%d]: got %+v, want %+v", i, got.Batch[i], want.Batch[i])
			}
		}
	}
}

func TestBinaryRequestExtensionUnknownFlagRejected(t *testing.T) {
	// Priority 1 encodes as a trailing [flags=0x02, zigzag(1)=0x02] pair;
	// a flags byte naming an unassigned bit must fail the frame — the
	// decoder cannot know how long an unknown extension is.
	for _, flags := range []byte{
		0x08,
		// Bit 0, the retired per-session memory quota: [0x01, 0x02] is an
		// older client's REQ with a 1-byte quota.
		0x01,
	} {
		frame, err := EncodeRequestBinary(nil, Request{Verb: "REQ", Ref: refp("mm", nil), Priority: 1})
		if err != nil {
			t.Fatal(err)
		}
		if frame[len(frame)-2] != 0x02 {
			t.Fatalf("flags byte = %#x, want 0x02 (layout changed?)", frame[len(frame)-2])
		}
		frame[len(frame)-2] = flags
		want := fmt.Sprintf("unknown request extension flags %#x", flags)
		if _, err := decodeRequest(frame); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("flags %#x: got %v, want %q", flags, err, want)
		}
	}
}

func TestBinaryExtensionOnBatchSubRequestRejected(t *testing.T) {
	// Priority/Weight are REQ-only and REQ is disallowed inside BAT; the
	// encoder refuses rather than silently dropping the fields.
	_, err := EncodeRequestBinary(nil, Request{Verb: "BAT", Batch: []Request{
		{Verb: "SND", Session: 1, Weight: 4},
	}})
	if err == nil || !strings.Contains(err.Error(), "batch sub-request") {
		t.Fatalf("weight on sub-request: got %v, want encode rejection", err)
	}
}

func TestBinaryOversizedFrameRejected(t *testing.T) {
	// Write side: an encoder-produced payload over MaxFrame must error out
	// before anything hits the wire.
	huge := Request{Verb: strings.Repeat("x", MaxFrame+1)}
	if _, err := EncodeRequestBinary(nil, huge); err == nil {
		t.Fatal("want encode error for payload exceeding MaxFrame")
	}
	// Read side: a crafted header claiming an oversized payload must be
	// rejected from the length alone, without attempting the read.
	a, b := fuzzPipeConn(t)
	hdr := []byte{frameMagic, kindRequest, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[2:], MaxFrame+1)
	go b.c.Write(hdr)
	_, err := a.ReadRequest()
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("oversized frame: got %v, want MaxFrame rejection", err)
	}
}

func TestBinaryTruncatedFrame(t *testing.T) {
	frame, err := EncodeRequestBinary(nil, Request{Verb: "REQ", Ref: refp("mm", map[string]int{"n": 64})})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, headerLen - 1, headerLen, len(frame) - 1} {
		a, b := fuzzPipeConn(t)
		go func() {
			b.c.Write(frame[:cut])
			b.c.Close() // EOF mid-frame
		}()
		_, err := a.ReadRequest()
		if err == nil || !strings.Contains(err.Error(), "truncated frame") {
			t.Fatalf("cut at %d: got %v, want truncated-frame error", cut, err)
		}
	}
}

func TestBinaryWrongKindRejected(t *testing.T) {
	frame, err := EncodeResponseBinary(nil, Response{Status: "ACK"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := fuzzPipeConn(t)
	go b.c.Write(frame)
	if _, err := a.ReadRequest(); err == nil || !strings.Contains(err.Error(), "frame kind") {
		t.Fatalf("response frame read as request: got %v, want kind error", err)
	}
}

// fullRequest and fullResponse set every field the wire carries, Batch
// included: the value a reused decode target may still hold.
var (
	fullRequest = Request{
		Verb: "BAT", Session: 5, Rank: 3, Ref: refp("mm", map[string]int{"n": 64}), Plane: PlaneRing,
		Data: []byte{1, 2}, Priority: 2, Weight: 3,
		Batch: []Request{{Verb: "SND", Session: 5, Data: []byte{3}}, {Verb: "STR", Session: 5}},
	}
	fullResponse = Response{
		Status: "ERR", Session: 5, Err: "boom", Plane: PlaneShm, Segment: "gvmd-seg-5",
		InBytes: 8, OutBytes: 4, VirtualMS: 1.5, Data: []byte{1, 2},
		Batch: []Response{{Status: "ACK", Session: 5, Data: []byte{3}}, {Status: "ERR", Session: 5, Err: "boom"}},
	}
)

// prefill decodes fullRequest or fullResponse, by v's type, into v.
func prefill(t testing.TB, v any) {
	t.Helper()
	var frame []byte
	var err error
	switch v := v.(type) {
	case *Request:
		if frame, err = EncodeRequestBinary(nil, fullRequest); err == nil {
			err = DecodeRequestBinaryInto(v, frame)
		}
	case *Response:
		if frame, err = EncodeResponseBinary(nil, fullResponse); err == nil {
			err = DecodeResponseBinaryInto(v, frame)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeIntoReusedValue: a decode target is a carrier's one retained
// value, so decoding frame B into the value that held frame A must give
// what decoding B into a zero value gives — for every ordered pair. Each
// field group is set by some frame and absent from another.
func TestDecodeIntoReusedValue(t *testing.T) {
	reqs := []Request{
		{Verb: "REQ", Session: 2, Rank: 1, Ref: refp("mm", map[string]int{"n": 64, "nit": 2}), Plane: PlaneRing,
			Priority: 3, Weight: 2},
		{Verb: "SND", Session: 7, Plane: PlaneInline, Data: []byte{1, 2, 3}},
		{Verb: "BAT", Batch: []Request{
			{Verb: "SND", Session: 7, Data: []byte{4}}, {Verb: "STR", Session: 7},
			{Verb: "STP", Session: 7}, {Verb: "RCV", Session: 7},
		}},
		{Verb: "RLS", Session: 7},
	}
	resps := []Response{
		{Status: "ACK", Session: 2, Plane: PlaneShm, Segment: "gvmd-seg-2", InBytes: 8192, OutBytes: 4096, VirtualMS: 0.3},
		{Status: "ACK", Session: 7, Data: []byte{5, 6, 7}, VirtualMS: 1.25},
		{Status: "ACK", VirtualMS: 2, Batch: []Response{
			{Status: "ACK", Session: 7, VirtualMS: 1}, {Status: "ERR", Session: 7, Err: "boom", VirtualMS: 2},
			{Status: "ERR", Session: 7, Err: "transport: skipped after earlier BAT failure"},
		}},
	}
	encode := func(v any) []byte {
		var frame []byte
		var err error
		switch v := v.(type) {
		case Request:
			frame, err = EncodeRequestBinary(nil, v)
		case Response:
			frame, err = EncodeResponseBinary(nil, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for i, a := range reqs {
		for j, b := range reqs {
			var v Request
			if err := DecodeRequestBinaryInto(&v, encode(a)); err != nil {
				t.Fatal(err)
			}
			if err := DecodeRequestBinaryInto(&v, encode(b)); err != nil {
				t.Fatal(err)
			}
			if want, _ := decodeRequest(encode(b)); !requestsEqual(v, want) {
				t.Errorf("request %d decoded over request %d: %+v, want %+v", j, i, v, want)
			}
		}
	}
	for i, a := range resps {
		for j, b := range resps {
			var v Response
			if err := DecodeResponseBinaryInto(&v, encode(a)); err != nil {
				t.Fatal(err)
			}
			if err := DecodeResponseBinaryInto(&v, encode(b)); err != nil {
				t.Fatal(err)
			}
			if want, _ := decodeResponse(encode(b)); !responsesEqual(v, want) {
				t.Errorf("response %d decoded over response %d: %+v, want %+v", j, i, v, want)
			}
		}
	}
}
