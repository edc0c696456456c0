package transport

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpuvirt/internal/shm"
)

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		addr, scheme, target string
	}{
		{"unix:///tmp/gvmd.sock", "unix", "/tmp/gvmd.sock"},
		{"tcp://127.0.0.1:7070", "tcp", "127.0.0.1:7070"},
		{"tcp://:0", "tcp", ":0"},
		{"inproc://name", "inproc", "name"},
		{"/tmp/gvmd.sock", "unix", "/tmp/gvmd.sock"}, // bare path = unix
		{"bogus://x", "bogus", "x"},
	}
	for _, c := range cases {
		scheme, target := SplitAddr(c.addr)
		if scheme != c.scheme || target != c.target {
			t.Errorf("SplitAddr(%q) = %q, %q; want %q, %q", c.addr, scheme, target, c.scheme, c.target)
		}
	}
}

func TestDialUnknownScheme(t *testing.T) {
	if _, _, err := DialAddr("bogus://x"); err == nil {
		t.Fatal("dial on an unregistered scheme succeeded")
	}
	if _, err := listen("bogus://x"); err == nil {
		t.Fatal("listen on an unregistered scheme succeeded")
	}
}

func TestDefaultPlanes(t *testing.T) {
	for scheme, want := range map[string]string{
		"unix":   PlaneShm,
		"inproc": PlaneShm,
		"tcp":    PlaneInline,
	} {
		sch, err := lookupScheme(scheme)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if got := sch.plane; got != want {
			t.Errorf("%s default plane = %q, want %q", scheme, got, want)
		}
	}
}

func TestInprocLifecycle(t *testing.T) {
	ln, err := listen("inproc://lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	if ln.Addr() != "inproc://lifecycle" {
		t.Fatalf("Addr = %q", ln.Addr())
	}
	// Double-listen on the same name is rejected.
	if _, err := listen("inproc://lifecycle"); err == nil {
		t.Fatal("second listener on the same inproc name accepted")
	}
	// Dial/accept hand over a usable duplex pipe.
	type res struct {
		n   int
		err error
	}
	got := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- res{0, err}
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		n, err := conn.Read(buf)
		got <- res{n, err}
	}()
	nc, _, err := DialAddr(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.n != 5 {
		t.Fatalf("server read %d bytes, err %v", r.n, r.err)
	}
	nc.Close()
	// After Close the name is free again, dialing it fails, and Accept
	// unblocks with an error.
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Accept on a closed inproc listener succeeded")
	}
	if _, _, err := DialAddr("inproc://lifecycle"); err == nil {
		t.Fatal("dial on a closed inproc name succeeded")
	}
	ln2, err := listen("inproc://lifecycle")
	if err != nil {
		t.Fatalf("name not released by Close: %v", err)
	}
	ln2.Close()
	if err := ln2.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestInprocDialUnknownName(t *testing.T) {
	if _, _, err := DialAddr("inproc://nobody-home"); err == nil {
		t.Fatal("dial on an unregistered inproc name succeeded")
	}
}

func TestInprocConnSupportsDeadlines(t *testing.T) {
	ln, err := listen("inproc://deadline")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(time.Second) // never answers in time
		}
	}()
	nc, _, err := DialAddr(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("read past deadline succeeded")
	}
}

// TestPlaneRoundTrips drives the client plane against the host plane of
// every kind directly, without a dispatcher in between: a mapped plane's
// regions ARE the staging, the inline plane copies through heap staging.
func TestPlaneRoundTrips(t *testing.T) {
	in := []byte{1, 2, 3, 4}
	out := []byte{9, 8, 7}
	for _, kind := range []string{PlaneShm, PlaneInline, PlaneRing} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			var rings *RingHost
			if kind == PlaneRing {
				var err error
				if rings, err = NewRingHost(RingHostConfig{ShmDir: dir}); err != nil {
					t.Fatal(err)
				}
				defer rings.Close()
			}
			host, err := newHostPlane(kind, rings, int64(len(in)), int64(len(out)))
			if err != nil {
				t.Fatal(err)
			}
			s := &hostSession{inB: int64(len(in)), outB: int64(len(out)), plane: host}
			if err := s.plane.create(dir, "seg-test", s); err != nil {
				t.Fatal(err)
			}
			defer s.plane.Close()
			resp := Response{Plane: s.plane.kind, Segment: s.plane.name, InBytes: s.inB, OutBytes: s.outB}
			client, err := OpenPlane(dir, &resp)
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if client.Kind() != kind || (client.Ring != nil) != (kind == PlaneRing) {
				t.Fatalf("client plane kind = %q, ring carrier %v", client.Kind(), client.Ring != nil)
			}

			stageIn, stageOut := s.plane.in, s.plane.out
			inline := s.plane.seg == nil
			if inline != (kind == PlaneInline) {
				t.Fatalf("%s plane: segment mapped = %v", kind, !inline)
			}
			if inline {
				if stageIn != nil || stageOut != nil {
					t.Fatal("inline plane exposes regions")
				}
				stageIn, stageOut = make([]byte, len(in)), make([]byte, len(out))
			} else if len(stageIn) != len(in) || len(stageOut) != len(out) {
				t.Fatalf("regions are %d+%d bytes, want %d+%d", len(stageIn), len(stageOut), len(in), len(out))
			}

			// Client stages input; it lands in the host's staging.
			req := Request{Verb: "SND"}
			if err := client.StageIn(in, &req); err != nil {
				t.Fatal(err)
			}
			if inline {
				copy(stageIn, req.Data)
			}
			if string(stageIn) != string(in) {
				t.Fatalf("host staging holds %v, want %v", stageIn, in)
			}

			// Host staging receives output; client collects it.
			var rcv Response
			rcv.Plane = kind
			copy(stageOut, out)
			if inline {
				rcv.Data = stageOut
			}
			buf := make([]byte, len(out))
			if err := client.CollectOut(buf, &rcv); err != nil {
				t.Fatal(err)
			}
			if string(buf) != string(out) {
				t.Fatalf("client read %v, want %v", buf, out)
			}

			// A mapped region takes exactly its size, whatever the kind.
			if !inline {
				if err := client.StageIn(in[:len(in)-1], &req); err == nil || !strings.Contains(err.Error(), "bytes") {
					t.Fatalf("short StageIn accepted: %v", err)
				}
				if err := client.CollectOut(make([]byte, len(out)+1), &rcv); err == nil || !strings.Contains(err.Error(), "bytes") {
					t.Fatalf("long CollectOut buffer accepted: %v", err)
				}
			}
		})
	}
}

// TestRingDoorbellFollowsHeader: a ring client rings whichever shard
// doorbell its ring header names when it submits — the daemon rewrites the
// offset when it moves the session to another shard — and an offset outside
// the doorbell segment fails the trip instead of faulting.
func TestRingDoorbellFollowsHeader(t *testing.T) {
	dir := t.TempDir()
	rings, err := NewRingHost(RingHostConfig{ShmDir: dir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rings.Close()
	host, err := newHostPlane(PlaneRing, rings, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &hostSession{plane: host}
	if err := s.plane.create(dir, "seg-door", s); err != nil {
		t.Fatal(err)
	}
	defer s.plane.Close()
	client, err := OpenPlane(dir, &Response{Plane: PlaneRing, Segment: s.plane.name})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sr := s.plane.ring.sr
	ack, err := EncodeResponseBinary(nil, Response{Status: "ACK"})
	if err != nil {
		t.Fatal(err)
	}
	rung := func() [2]uint32 {
		return [2]uint32{rings.Shard(0).Door().Load() >> 1, rings.Shard(1).Door().Load() >> 1}
	}
	for _, shard := range []int{0, 1, 0} {
		sr.SetDoorOff(uint32(shard * shm.DoorStride))
		before := rung()
		if !sr.Cpl.Push(ack) { // the answer is waiting: Trip returns at once
			t.Fatal("completion ring full")
		}
		if _, err := client.Ring.Trip(&Request{Verb: "STP", Session: 1}); err != nil {
			t.Fatal(err)
		}
		after := rung()
		if after[shard]-before[shard] != 1 || after[1-shard] != before[1-shard] {
			t.Fatalf("header names gpu %d's door: doorbells went %v -> %v", shard, before, after)
		}
	}
	sr.SetDoorOff(1 << 20)
	if _, err := client.Ring.Trip(&Request{Verb: "STP", Session: 1}); err == nil || !strings.Contains(err.Error(), "doorbell") {
		t.Fatalf("trip with the door offset outside the doorbell segment: %v, want a doorbell error", err)
	}
}

func TestShmHostPlaneRemovesSegment(t *testing.T) {
	dir := t.TempDir()
	host, err := newHostPlane(PlaneShm, nil, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.create(dir, "seg-rm", &hostSession{inB: 8, outB: 8}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "seg-rm")
	seg, err := shm.OpenFile(dir, "seg-rm")
	if err != nil {
		t.Fatalf("segment file missing while plane open: %v", err)
	}
	seg.Close()
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := shm.OpenFile(dir, "seg-rm"); err == nil {
		t.Fatalf("segment %s survived host plane Close", path)
	}
}

func TestInlinePlaneSizeMismatch(t *testing.T) {
	p, err := OpenPlane("", &Response{Plane: PlaneInline})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	resp := Response{Data: []byte{1, 2}}
	if err := p.CollectOut(buf, &resp); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("short inline payload accepted: %v", err)
	}
}
