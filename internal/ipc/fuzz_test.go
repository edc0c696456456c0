package ipc

import (
	"bytes"
	"encoding/base64"
	"strings"
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
	return transport.NewConn(nc)
}

// FuzzMigBlob sends arbitrary bytes as an ADP migration blob — which a
// daemon unmarshals straight off the wire from whoever connects — to a
// live functional daemon. The daemon must answer every one (adopting the
// well-formed, rejecting the rest), stay up, and hold nothing once the
// connection is gone. An adoption makes the blob's arena buffers device
// memory as they are, so what it adopts must also take a whole cycle —
// copies and kernels over every byte the spec addresses — without the
// daemon dying on a short arena. The seed is a real blob: a staged session
// pulled off the same daemon with MIG.
func FuzzMigBlob(f *testing.F) {
	s, err := NewServer(ServerConfig{
		Listen:     []string{"inproc://fuzz-migblob"},
		ShmDir:     f.TempDir(),
		Functional: true,
		// A mutated workload size must be turned away by admission, not
		// allocated.
		MaxSessionBytes: 1 << 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
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
	f.Add(append([]byte(nil), mig.Data...))
	src.Close()
	f.Add([]byte(`{"ref":{"name":"vecadd","params":{"n":64}},"ext":{"id":1,"footprint":768,"scratch":["AA=="]}}`))
	f.Add([]byte(`{"ref":{"name":"vecadd","params":{"n":64}},"ext":{"id":1,"footprint":-1}}`))
	f.Add([]byte(`{"ref":{"name":"nope"},"ext":{}}`))
	// Arena buffers that do not fill their allocation: 3 bytes declared as
	// the 512-byte input arena, and 100 bytes honestly declared as 100.
	f.Add([]byte(`{"ref":{"name":"vecadd","params":{"n":64}},"in_bytes":512,"out_bytes":256,"ext":{"id":1,"footprint":768,"dev_bytes":768,"snap_in":"AQID","snap_in_size":512,"snap_out_size":256,"snap_total":768}}`))
	f.Add([]byte(`{"ref":{"name":"vecadd","params":{"n":64}},"in_bytes":512,"out_bytes":256,"ext":{"id":1,"footprint":768,"dev_bytes":768,"snap_in":"` +
		base64.StdEncoding.EncodeToString(make([]byte, 100)) + `","snap_in_size":100,"snap_out_size":256,"snap_total":356}}`))
	// A consistent blob whose scratch is not what the task builds: class-S IS
	// replays its 512 KiB block histogram onto a 256-byte allocation. Adopted,
	// its first STR ran a kernel off the end of that allocation and panicked
	// the shard owner.
	f.Add([]byte(`{"ref":{"name":"is"},"in_bytes":262144,"out_bytes":262144,"ext":{"id":1,"done":true,"footprint":524288,"dev_bytes":532992,` +
		`"snap_in_size":262144,"snap_out_size":262144,"scratch":[null,null],"scr_sizes":[256,8448],"snap_total":532992}}`))
	f.Add([]byte(`{"ext":`))

	f.Fuzz(func(t *testing.T, blob []byte) {
		c := dial(t)
		resp := trip(t, c, transport.Request{Verb: "ADP", Data: blob})
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
		waitShardsClean(t, s)
	})
}

// TestADPIgnoresRetiredBlobKeys pins what a daemon does with a migration
// blob from one that still wrote the keys this format has dropped —
// "started" beside the session state, "direct" inside it: they are unknown
// JSON keys, ignored, and the blob is adopted. Where the session stood in
// its cycle is gvm's state alone: staged and not started, so STP says so.
func TestADPIgnoresRetiredBlobKeys(t *testing.T) {
	s := startServerOn(t, ServerConfig{Listen: []string{"inproc://adp-retired-keys"}, Functional: true})
	c := dialRaw(t, s.Addr())
	defer c.Close()
	trip := func(req transport.Request) transport.Response {
		t.Helper()
		if err := c.WriteRequest(&req); err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		return *resp
	}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}
	req := trip(transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline})
	in, _ := vecaddInput(64, 1)
	trip(transport.Request{Verb: "SND", Session: req.Session, Data: in})
	mig := trip(transport.Request{Verb: "MIG", Session: req.Session})
	if mig.Status != "ACK" {
		t.Fatalf("MIG: %s", mig.Err)
	}
	blob := string(mig.Data)
	blob = strings.Replace(blob, `{"ref":`, `{"started":true,"ref":`, 1)
	blob = strings.Replace(blob, `"ext":{`, `"ext":{"direct":true,`, 1)
	if !strings.Contains(blob, `"started":true`) || !strings.Contains(blob, `"direct":true`) {
		t.Fatalf("blob layout changed, keys not injected: %.80s", blob)
	}
	adp := trip(transport.Request{Verb: "ADP", Data: []byte(blob)})
	if adp.Status != "ACK" {
		t.Fatalf("ADP of a blob with retired keys: %s %s", adp.Status, adp.Err)
	}
	if r := trip(transport.Request{Verb: "STP", Session: adp.Session}); r.Status != "ERR" || !strings.Contains(r.Err, "STP before STR") {
		t.Fatalf("STP on the adopted, never started session: %s %q", r.Status, r.Err)
	}
	if r := trip(transport.Request{Verb: "RLS", Session: adp.Session}); r.Status != "ACK" {
		t.Fatalf("RLS: %s %s", r.Status, r.Err)
	}
}

// TestADPSuspendedKey pins the one key a migration blob carries for a
// session its client suspended: "suspended" rides only then, the session
// adopts still suspended and RES brings it back; a blob without the key —
// what a daemon wrote before the key existed — adopts as it always did,
// materialized, its results ready for RCV.
func TestADPSuspendedKey(t *testing.T) {
	s := startServerOn(t, ServerConfig{Listen: []string{"inproc://adp-suspended-key"}, Functional: true})
	c := dialRaw(t, s.Addr())
	defer c.Close()
	trip := func(req transport.Request) transport.Response {
		t.Helper()
		if err := c.WriteRequest(&req); err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		resp, err := c.ReadResponse()
		if err != nil {
			t.Fatalf("%s: %v", req.Verb, err)
		}
		return *resp
	}
	must := func(req transport.Request) transport.Response {
		t.Helper()
		r := trip(req)
		if r.Status != "ACK" {
			t.Fatalf("%s: %s %s", req.Verb, r.Status, r.Err)
		}
		return r
	}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}
	in, want := vecaddInput(64, 1)
	migrate := func(suspend bool) string {
		t.Helper()
		id := must(transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline}).Session
		for _, v := range []string{"SND", "STR", "STP"} {
			must(transport.Request{Verb: v, Session: id, Data: in})
		}
		if suspend {
			must(transport.Request{Verb: "SUS", Session: id})
		}
		blob := string(must(transport.Request{Verb: "MIG", Session: id}).Data)
		if got := strings.Contains(blob, `"suspended"`); got != suspend {
			t.Fatalf("suspended=%v session's blob carries the key: %v", suspend, got)
		}
		return blob
	}
	rcv := func(id int) {
		t.Helper()
		if r := must(transport.Request{Verb: "RCV", Session: id}); !bytes.Equal(r.Data, want) {
			t.Fatal("RCV of the adopted session: wrong bytes")
		}
		must(transport.Request{Verb: "RLS", Session: id})
	}

	migrate(false)
	blob := migrate(true)
	id := must(transport.Request{Verb: "ADP", Data: []byte(blob)}).Session
	if r := trip(transport.Request{Verb: "RCV", Session: id}); r.Status != "ERR" || !strings.Contains(r.Err, "RCV on suspended session") {
		t.Fatalf("RCV on the adopted suspended session: %s %q", r.Status, r.Err)
	}
	must(transport.Request{Verb: "RES", Session: id})
	rcv(id)

	old := strings.Replace(migrate(true), `,"suspended":true`, "", 1)
	if strings.Contains(old, `"suspended"`) {
		t.Fatalf("blob layout changed, key not removed: %.120s", old)
	}
	rcv(must(transport.Request{Verb: "ADP", Data: []byte(old)}).Session)
}
