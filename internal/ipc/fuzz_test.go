package ipc

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// dialRaw connects to a daemon below the Client: preamble sent, frames up
// to the caller — for tests that hang up mid-exchange or send verbs no
// Client method issues.
func dialRaw(t testing.TB, addr string) *transport.Conn {
	t.Helper()
	nc, _, err := transport.DialAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WritePreamble(nc); err != nil {
		t.Fatal(err)
	}
	c := transport.NewConn(nc)
	t.Cleanup(func() { c.Close(); c.Release() })
	return c
}

// FuzzMigBlob sends arbitrary bytes as an ADP migration blob — which a
// daemon decodes straight off the wire from whoever connects — to a live
// functional daemon, beside the vecadd reference a router sends. The daemon
// must answer every one (adopting the well-formed, rejecting the rest),
// stay up, and hold nothing once the connection is gone. An adoption makes
// the blob's arena buffers device memory as they are, so what it adopts
// must also take a whole cycle — copies and kernels over every byte the
// spec addresses — without the daemon dying on a short arena; one it
// refuses leaves every shard's placed sessions and bytes where they were.
// The seed is a real blob: a staged session pulled off the same daemon with
// MIG.
func FuzzMigBlob(f *testing.F) {
	s := startDaemon(f, ServerConfig{
		Listen:     []string{"inproc://fuzz-migblob"},
		Functional: true,
		// A mutated workload size must be turned away by admission, not
		// allocated.
		MaxSessionBytes: 1 << 20,
	})
	dial := func(t testing.TB) *transport.Conn {
		c := dialRaw(t, s.Addr())
		_ = c.SetDeadline(time.Now().Add(10 * time.Second)) // a hung daemon fails the input
		return c
	}
	trip := func(t testing.TB, c *transport.Conn, req transport.Request) transport.Response {
		if err := c.WriteRequest(&req); err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("%s: daemon dropped the connection: %v", req.Verb, err)
		}
		return *resp
	}

	src := dial(f)
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}
	req := trip(f, src, transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline})
	if req.Status != "ACK" {
		f.Fatalf("REQ: %s", req.Err)
	}
	in, _ := vecaddInput(64, 1)
	if r := trip(f, src, transport.Request{Verb: "SND", Session: req.Session, Data: in}); r.Status != "ACK" {
		f.Fatalf("SND: %s", r.Err)
	}
	mig := trip(f, src, transport.Request{Verb: "MIG", Session: req.Session})
	if mig.Status != "ACK" {
		f.Fatalf("MIG: %s", mig.Err)
	}
	blob := append([]byte(nil), mig.Data...)
	src.Close()
	src.Release()
	f.Add(blob)
	// The blob's wire form: a state byte, a scratch count, then staged in
	// and staged out (presence byte, uvarint length, bytes).
	buf := func(b []byte) []byte { return append(binary.AppendUvarint([]byte{1}, uint64(len(b))), b...) }
	f.Add(slices.Concat([]byte{0, 0}, buf(in), buf(make([]byte, 256))))
	// Staged input that is not the 512 bytes vecadd stages.
	f.Add(slices.Concat([]byte{0, 0}, buf([]byte{1, 2, 3}), []byte{0}))
	f.Add(slices.Concat([]byte{0, 0}, buf(make([]byte, 100)), []byte{0}))
	// A scratch buffer vecadd does not build.
	f.Add(slices.Concat([]byte{1, 1, 0, 0}, buf(make([]byte, 256))))
	f.Add(blob[:len(blob)-1]) // truncated
	f.Add(append(blob, 0))    // trailing
	f.Add([]byte{3, 0, 0, 0}) // done and rerun at once
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, blob []byte) {
		c := dial(t)
		before := s.Node().Loads()
		resp := trip(t, c, transport.Request{Verb: "ADP", Ref: &ref, Data: blob})
		if resp.Status == "ERR" {
			for i, l := range s.Node().Loads() {
				if l.Sessions != before[i].Sessions || l.Bytes != before[i].Bytes {
					t.Fatalf("ADP answered %q but left gpu %d placing %d sessions, %d bytes (before: %d, %d)",
						resp.Err, i, l.Sessions, l.Bytes, before[i].Sessions, before[i].Bytes)
				}
			}
		}
		if resp.Status == "ACK" {
			// An adopted session is a session like any other: it runs a
			// cycle (whatever each verb answers, it answers) and releases.
			for _, verb := range []string{"SND", "STR", "STP", "RCV"} {
				req := transport.Request{Verb: verb, Session: resp.Session}
				if verb == "SND" {
					req.Data = make([]byte, resp.InBytes)
				}
				trip(t, c, req)
			}
			if r := trip(t, c, transport.Request{Verb: "RLS", Session: resp.Session}); r.Status != "ACK" {
				t.Fatalf("RLS of the adopted session: %s %s", r.Status, r.Err)
			}
		}
		c.Close()
		c.Release()
		if held := s.Audit(); len(held) > 0 {
			t.Fatalf("the daemon still holds %v once the connection is gone", held)
		}
	})
}

// TestADPRestoresDoneSession: a session that completed its cycle, moved
// with MIG and landed with ADP, arrives with its arena restored and its
// results ready for RCV.
func TestADPRestoresDoneSession(t *testing.T) {
	c := dialRaw(t, startDaemon(t, ServerConfig{Listen: []string{"inproc://adp-done"}, Functional: true}).Addr())
	must := func(req transport.Request) transport.Response {
		t.Helper()
		if err := c.WriteRequest(&req); err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		if r.Status != "ACK" {
			t.Fatalf("%s: %s %s", req.Verb, r.Status, r.Err)
		}
		return *r
	}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}
	in, want := vecaddInput(64, 1)
	id := must(transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline}).Session
	for _, v := range []string{"SND", "STR", "STP"} {
		must(transport.Request{Verb: v, Session: id, Data: in})
	}
	blob := append([]byte(nil), must(transport.Request{Verb: "MIG", Session: id}).Data...)
	id = must(transport.Request{Verb: "ADP", Ref: &ref, Data: blob}).Session
	if r := must(transport.Request{Verb: "RCV", Session: id}); !bytes.Equal(r.Data, want) {
		t.Fatal("RCV of the adopted session: wrong bytes")
	}
	must(transport.Request{Verb: "RLS", Session: id})
}
