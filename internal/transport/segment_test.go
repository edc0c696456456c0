package transport

import (
	"io"
	"math/rand"
	"net"
	"strconv"
	"testing"

	"gpuvirt/internal/workloads"
)

// chunkConn is a net.Conn whose reads deliver a fixed byte stream in
// chunks of the sizes next picks (clamped to [1, what the reader and the
// stream have]), then io.EOF: how a socket may segment what a peer wrote.
type chunkConn struct {
	net.Conn // nil: a reader only reads
	stream   []byte
	next     func() int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), max(1, c.next()))], c.stream)
	c.stream = c.stream[n:]
	return n, nil
}

func (c *chunkConn) Close() error { return nil }

// readStream reads request frames off stream, chunked by next, until the
// first error, and returns what decoded (each re-encoded, since a read's
// result lives only until the next read) and that error.
func readStream(t *testing.T, stream []byte, next func() int) ([][]byte, error) {
	t.Helper()
	c := NewConn(&chunkConn{stream: stream, next: next})
	defer c.Release()
	var got [][]byte
	for {
		req, err := c.ReadRequest()
		if err != nil {
			return got, err
		}
		frame, eerr := EncodeRequestBinary(nil, *req)
		if eerr != nil {
			t.Fatal(eerr)
		}
		got = append(got, frame)
	}
}

// segmentFrames is a stream of the frames a session sends: a REQ, a
// pipelined cycle, lone verbs with and without an inline payload of bulk
// bytes.
func segmentFrames(t *testing.T, bulk int) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, req := range []Request{
		{Verb: "REQ", Ref: &workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 16}}, Plane: PlaneInline, Weight: 2},
		{Verb: "BAT", Batch: []Request{
			{Verb: "SND", Session: 1, Data: []byte("sixteen bytes in")},
			{Verb: "STR", Session: 1}, {Verb: "STP", Session: 1}, {Verb: "RCV", Session: 1},
		}},
		{Verb: "SND", Session: 1, Data: make([]byte, bulk)},
		{Verb: "RLS", Session: 1},
	} {
		frame, err := EncodeRequestBinary(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

func concat(frames [][]byte) []byte {
	var s []byte
	for _, f := range frames {
		s = append(s, f...)
	}
	return s
}

func checkFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: read %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("%s: frame %d decoded differently", what, i)
		}
	}
}

// TestReadSegmentation: however the stream is cut into reads — a byte at
// a time, at every header and payload offset, several frames in one read,
// at random — the frames decode the same, and the stream ends in a clean
// io.EOF. The stream is a session's frames three times over, several read
// buffers long, so a frame also straddles the buffer's end: it is
// compacted to the front, or moved to a bigger buffer.
func TestReadSegmentation(t *testing.T) {
	session := segmentFrames(t, 3000)
	frames := append(append(session[:len(session):len(session)], session...), session...)
	stream := concat(frames)
	type schedule struct {
		name string
		next func() int
	}
	rng := rand.New(rand.NewSource(1))
	schedules := []schedule{
		{"1-byte reads", func() int { return 1 }},
		{"whole stream", func() int { return len(stream) }},
		{"random, 1..64", func() int { return 1 + rng.Intn(64) }},
		{"random, 1..512", func() int { return 1 + rng.Intn(512) }},
	}
	for i := 1; i < len(concat(session)); i++ { // split at every offset, the rest in reads as big as the buffer
		first := true
		schedules = append(schedules, schedule{"split at " + strconv.Itoa(i), func() int {
			if first {
				first = false
				return i
			}
			return len(stream)
		}})
	}
	for _, s := range schedules {
		got, err := readStream(t, stream, s.next)
		if err != io.EOF {
			t.Fatalf("%s: stream ended in %v, want a clean io.EOF", s.name, err)
		}
		checkFrames(t, s.name, got, frames)
	}
}

// TestReadSegmentationBigFrame: a frame above rbufHighWater, then a small
// one, in random chunks: both decode, and the small one already reads from
// a buffer back under the mark.
func TestReadSegmentationBigFrame(t *testing.T) {
	var frames [][]byte
	for _, req := range []Request{
		{Verb: "SND", Session: 3, Data: make([]byte, rbufHighWater+1)},
		{Verb: "STR", Session: 3},
	} {
		frame, err := EncodeRequestBinary(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	frames[0][len(frames[0])-1] = 0xcd
	rng := rand.New(rand.NewSource(2))
	c := NewConn(&chunkConn{stream: concat(frames), next: func() int { return 1 + rng.Intn(96<<10) }})
	defer c.Release()
	for i, want := range frames {
		req, err := c.ReadRequest()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got, _ := EncodeRequestBinary(nil, *req); string(got) != string(want) {
			t.Fatalf("frame %d decoded differently", i)
		}
	}
	if cap(c.rbuf) > rbufHighWater {
		t.Fatalf("read buffer cap %d after the small frame, above the %d high-water mark", cap(c.rbuf), rbufHighWater)
	}
	if _, err := c.ReadRequest(); err != io.EOF {
		t.Fatalf("stream ended in %v, want a clean io.EOF", err)
	}
}

// TestReadTruncationErrors cuts the stream at every offset: the frames
// before the cut decode, and the read that meets it fails as io.ReadFull
// over header then payload would — a clean io.EOF between frames,
// "truncated frame header" or "truncated frame" inside one, with EOF
// wrapped as io.ErrUnexpectedEOF once part of what was asked for came.
func TestReadTruncationErrors(t *testing.T) {
	frames := segmentFrames(t, 300)
	stream := concat(frames)
	for cut := 0; cut <= len(stream); cut++ {
		whole, off := 0, cut // frames wholly before the cut; offset into the next
		for whole < len(frames) && off >= len(frames[whole]) {
			off -= len(frames[whole])
			whole++
		}
		want := "EOF"
		switch {
		case off == 0:
		case off < headerLen:
			want = "transport: truncated frame header: unexpected EOF"
		case off == headerLen:
			want = "transport: truncated frame: EOF"
		default:
			want = "transport: truncated frame: unexpected EOF"
		}
		for _, next := range []func() int{
			func() int { return 1 },
			func() int { return len(stream) },
		} {
			got, err := readStream(t, stream[:cut], next)
			checkFrames(t, "cut at "+strconv.Itoa(cut), got, frames[:whole])
			if err == nil || err.Error() != want {
				t.Fatalf("cut at %d: read failed with %v, want %q", cut, err, want)
			}
			if off == 0 && err != io.EOF {
				t.Fatalf("cut at %d, between frames: %v is not io.EOF itself", cut, err)
			}
		}
	}
}
