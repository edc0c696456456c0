package ipc

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// TestPipelinedCycleOneRoundTrip is the acceptance check for verb
// pipelining: a full SND+STR+STP+RCV cycle must cost exactly one frame
// exchange, while a NoPipeline client pays four.
func TestPipelinedCycleOneRoundTrip(t *testing.T) {
	s := startDaemon(t, ServerConfig{Functional: true})
	const n = 512
	in := make([]byte, 2*n*4)
	out := make([]byte, n*4)

	c := s.dial(t, Options{})
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := c.RoundTrips()
	if err := sess.RunCycle(in, out); err != nil {
		t.Fatal(err)
	}
	if got := c.RoundTrips() - before; got != 1 {
		t.Fatalf("pipelined cycle cost %d round trips, want 1", got)
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}

	serial := s.dial(t, Options{NoPipeline: true})
	ssess, err := serial.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before = serial.RoundTrips()
	if err := ssess.RunCycle(in, out); err != nil {
		t.Fatal(err)
	}
	if got := serial.RoundTrips() - before; got < 4 {
		t.Fatalf("serial cycle cost %d round trips, want >= 4", got)
	}
	if err := ssess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxSessionBytes covers the -max-session-bytes satellite: a REQ
// whose staging footprint exceeds the daemon limit is rejected with an
// error that names the limit, and a REQ within the limit still works.
func TestMaxSessionBytes(t *testing.T) {
	s := startDaemon(t, ServerConfig{
		Listen:          []string{"unix://" + tempSocket(t)},
		Functional:      true,
		MaxSessionBytes: 16 << 10,
	})
	c := s.dial(t, Options{})

	// n=4096 floats: in 2*4096*4 = 32 KiB alone busts the 16 KiB cap.
	_, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 4096}}, 0)
	if err == nil {
		t.Fatal("oversized REQ accepted despite MaxSessionBytes")
	}
	if !strings.Contains(err.Error(), "max-session-bytes") || !strings.Contains(err.Error(), "16384") {
		t.Fatalf("rejection does not name the limit: %v", err)
	}

	// n=512: 2*512*4 + 512*4 = 6 KiB fits; the connection stays usable.
	out := vecaddCycle(t, c, 512, 0)
	res := cuda.Float32s(byteMem(out), 0, 512)
	if res[100] != 100.5 {
		t.Fatalf("post-rejection cycle wrong: out[100] = %g", res[100])
	}
}

// TestBATMisuse pins what a malformed or mistimed frame draws from the
// daemon, on both carriers: a frame that is wrong as a whole is rejected
// whole, before any owner work; a verb the session's state does not allow
// fails as its own step. The socket dispatcher and the ring host check a
// frame with one function (transport.FrameSteps) in front of one engine, so
// every row the ring can express must answer the same status and the same
// error text as the socket (fed's TestBATMisuseThroughRouter holds the
// router, the function's third caller, to the socket's answers). (States a
// carrier cannot reach — a second verb while the first still runs, since
// each carrier serves a session's frames one at a time — are held to the
// same table one level down, in gvm's TestProtocolTableOnBothSurfaces.)
func TestBATMisuse(t *testing.T) {
	// own is the session the frame travels on, sibling another session of
	// the same connection, foreign another connection's.
	type ids struct{ own, sibling, foreign int }
	bat := func(subs ...Request) Request { return Request{Verb: "BAT", Batch: subs} }
	one := func(verb string) func(ids) Request {
		return func(id ids) Request { return bat(Request{Verb: verb, Session: id.own}) }
	}
	lone := func(verb string) func(ids) Request {
		return func(id ids) Request { return Request{Verb: verb, Session: id.own} }
	}
	two := func(v1, v2 string) func(ids) Request {
		return func(id ids) Request {
			return bat(Request{Verb: v1, Session: id.own}, Request{Verb: v2, Session: id.own})
		}
	}
	const same = "=" // the carrier must answer exactly what the socket does
	rows := []struct {
		name  string
		frame func(ids) Request
		unix  string // wanted in the socket's error text
		ring  string // in the ring's: same, its own wording, or "" (cannot express the row)
	}{
		{"empty", func(ids) Request { return bat() }, "empty BAT", same},
		{"req-inside", one("REQ"), "not allowed in BAT", same},
		{"duplicate-verb", two("SND", "SND"), "once each", same},
		{"out-of-order", two("STR", "SND"), "order", same},
		{"verb-behind-RLS", two("RLS", "SND"), "order", same},
		{"two-sessions", func(id ids) Request {
			return bat(Request{Verb: "SND", Session: id.own}, Request{Verb: "SND", Session: id.sibling})
		}, "a frame carries one session's verbs", same},
		{"STP-before-STR", one("STP"), "STP before STR", same},
		{"RCV-before-completion", two("SND", "RCV"), "RCV before completion", same},
		// The retired suspend/resume verbs are no session verbs anywhere.
		{"RES-without-SUS", lone("RES"), `transport: verb "RES" is not a session verb`, same},
		{"lone-SUS", lone("SUS"), `transport: verb "SUS" is not a session verb`, same},
		// Whose session an id names is each front-end's own table.
		{"unknown-session", func(ids) Request { return bat(Request{Verb: "SND", Session: 999}) },
			"transport: unknown session 999", ""},
		{"foreign-session", func(id ids) Request { return bat(Request{Verb: "SND", Session: id.foreign}) },
			"belongs to another connection", "on session"},
	}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 64}}
	// Per carrier: a session to misuse, a second one on its connection, and
	// another connection's session — opened in that order everywhere, so the
	// ids an error names agree too.
	type carrier struct{ sess, sibling, other *Session }
	open := func(addr, dir string) carrier {
		dial := func() *Client {
			c, err := DialOptions(addr, Options{ShmDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}
		request := func(c *Client) *Session {
			sess, err := c.Request(ref, 0)
			if err != nil {
				t.Fatal(err)
			}
			return sess
		}
		mine := dial()
		return carrier{request(mine), request(mine), request(dial())}
	}
	ringSrv := startDaemon(t, ServerConfig{Listen: []string{"ring://" + tempSocket(t)}, Functional: true})
	unixSrv := startDaemon(t, ServerConfig{Functional: true})
	carriers := map[string]carrier{
		"unix": open(unixSrv.Addr(), unixSrv.dir),
		"ring": open(ringSrv.Addr(), ringSrv.dir),
	}
	// ask sends the frame — its SND staged the way the session's plane
	// stages one — and returns its own error, else its first failing step's.
	ask := func(c carrier, frame func(ids) Request) string {
		req := frame(ids{c.sess.ID(), c.sibling.ID(), c.other.ID()})
		if len(req.Batch) > 0 && req.Batch[0].Verb == "SND" && req.Batch[0].Session == c.sess.ID() {
			if err := c.sess.plane.StageIn(make([]byte, c.sess.inBytes), &req.Batch[0]); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := c.sess.trip(&req)
		if err != nil {
			return err.Error()
		}
		for _, r := range resp.Batch {
			if r.Status != "ACK" {
				return r.Status + " " + r.Err
			}
		}
		return ""
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			unix := ask(carriers["unix"], row.frame)
			if !strings.Contains(unix, row.unix) {
				t.Errorf("unix: got %q, want an error containing %q", unix, row.unix)
			}
			if row.ring == "" {
				return
			}
			got := ask(carriers["ring"], row.frame)
			if row.ring == same && got != unix {
				t.Errorf("carriers disagree: unix %q, ring %q", unix, got)
			} else if row.ring != same && !strings.Contains(got, row.ring) {
				t.Errorf("ring: got %q, want an error containing %q", got, row.ring)
			}
		})
	}

	// The sessions survive all that misuse and still run a byte-identical
	// cycle; once released, an id means nothing anymore (a socket can still
	// say so — a released session's ring is gone).
	in, want := vecaddInput(64, 5)
	for name, c := range carriers {
		out := make([]byte, c.sess.outBytes)
		if err := c.sess.RunCycle(in, out); err != nil {
			t.Fatalf("%s session unusable after rejected frames: %v", name, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s session computed wrong results after rejected frames", name)
		}
		if err := c.sess.Release(); err != nil {
			t.Fatal(err)
		}
	}
	c := carriers["unix"]
	if _, err := c.sess.trip(&Request{Verb: "SND", Session: c.sess.ID()}); err == nil || !strings.Contains(err.Error(), "unknown session") {
		t.Errorf("verb after RLS: got %v, want unknown session", err)
	}
}

// TestPipelinedStressRace hammers one inproc daemon with 8 concurrent
// pipelined clients for 50 cycles each and checks every output is
// byte-identical to a serial single-shard run of the same input. A
// scraper goroutine renders the daemon's /metrics registry the whole
// time. Run under -race this is the concurrency acceptance test: the
// off-owner staging copies must never race the owner's simulation work,
// and a telemetry scrape must never race either of them.
func TestPipelinedStressRace(t *testing.T) { runStressRace(t, 1) }

// TestShardedStressRace is the same stress run against a 2-shard daemon:
// two owner goroutines execute in parallel, the clients split 4/4
// across the shards, and every output must still match the single-shard
// serial reference byte for byte.
func TestShardedStressRace(t *testing.T) { runStressRace(t, 2) }

func runStressRace(t *testing.T, gpus int) {
	const (
		clients = 8
		iters   = 50
		n       = 128
	)
	s := startDaemon(t, ServerConfig{
		Listen:     []string{fmt.Sprintf("inproc://stress-g%d", gpus)},
		Functional: true,
		GPUs:       gpus,
	})

	input := func(rank int) []byte {
		in := make([]float32, 2*n)
		for i := 0; i < n; i++ {
			in[i] = float32(rank*1000 + i)
			in[n+i] = 0.25
		}
		return cuda.HostFloat32Bytes(in)
	}

	// Serial reference pass on a separate single-shard daemon: one
	// client, one cycle per distinct input.
	refSrv := startDaemon(t, ServerConfig{
		Listen:     []string{fmt.Sprintf("inproc://stress-ref-g%d", gpus)},
		Functional: true,
	})
	ref := make([][]byte, clients)
	serial, err := DialOptions(refSrv.Addr(), Options{ShmDir: refSrv.cfg.ShmDir})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < clients; r++ {
		sess, err := serial.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, sess.outBytes)
		if err := sess.RunCycle(input(r), out); err != nil {
			t.Fatal(err)
		}
		if err := sess.Release(); err != nil {
			t.Fatal(err)
		}
		ref[r] = out
	}
	serial.Close()

	// Scrape concurrently with the traffic below: every series in the
	// registry is read while the owner and 8 connection goroutines
	// mutate them.
	scrapeDone := make(chan struct{})
	scrapeQuit := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-scrapeQuit:
				return
			default:
			}
			var sb strings.Builder
			if err := s.cfg.Metrics.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()

	// Every client holds its session open until all of them have placed
	// theirs, so least-sessions placement splits them evenly across the
	// shards before the hammering starts.
	var openWG sync.WaitGroup
	openWG.Add(clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for r := 0; r < clients; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			signalled := false
			signal := func() {
				if !signalled {
					signalled = true
					openWG.Done()
				}
			}
			defer signal()
			c, err := DialOptions(s.Addr(), Options{ShmDir: s.cfg.ShmDir})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			in := input(rank)
			sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
			if err != nil {
				errs <- err
				return
			}
			signal()
			openWG.Wait()
			out := make([]byte, sess.outBytes)
			for i := 0; i < iters; i++ {
				if err := sess.RunCycle(in, out); err != nil {
					errs <- fmt.Errorf("client %d iter %d: %w", rank, i, err)
					return
				}
				if string(out) != string(ref[rank]) {
					errs <- fmt.Errorf("client %d iter %d: output differs from serial reference", rank, i)
					return
				}
			}
			errs <- sess.Release()
		}(r)
	}
	wg.Wait()
	close(scrapeQuit)
	<-scrapeDone
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The load spread evenly: clients/gpus sessions were opened per shard.
	for shard := 0; shard < gpus; shard++ {
		opened := -1
		if !s.submitProbe(shard, func() { opened = s.node.Shard(shard).Mgr.SessionsOpened() }) {
			t.Fatal("server closed early")
		}
		if opened != clients/gpus {
			t.Errorf("gpu %d opened %d sessions, want %d", shard, opened, clients/gpus)
		}
	}
}

// TestDisconnectMidBAT kills a client that sent a pipelined cycle and
// vanished before reading the response — with its STR parked at a
// two-party barrier. The surviving party must complete (barrier timeout)
// and the dead client's session and device memory must be reclaimed.
func TestDisconnectMidBAT(t *testing.T) {
	s := startDaemon(t, ServerConfig{
		Listen:         []string{"unix://" + tempSocket(t)},
		Parties:        2,
		Functional:     true,
		BarrierTimeout: 100 * sim.Millisecond,
	})

	// The victim speaks the raw wire so it can write one BAT frame and
	// hang up without ever reading the response.
	vc := dialRaw(t, s.Addr())
	const n = 1024
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	if err := vc.WriteRequest(&transport.Request{Verb: "REQ", Ref: &ref, Rank: 0, Plane: transport.PlaneInline}); err != nil {
		t.Fatal(err)
	}
	resp, err := vc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ACK" {
		t.Fatalf("victim REQ: %s %s", resp.Status, resp.Err)
	}
	id := resp.Session
	if err := vc.WriteRequest(&transport.Request{Verb: "BAT", Batch: []transport.Request{
		{Verb: "SND", Session: id, Data: make([]byte, resp.InBytes)},
		{Verb: "STR", Session: id},
		{Verb: "STP", Session: id},
		{Verb: "RCV", Session: id},
	}}); err != nil {
		t.Fatal(err)
	}
	vc.Close() // gone before the barrier flushes or the response is written

	survivor := s.dial(t, Options{})
	done := make(chan error, 1)
	go func() {
		sess, err := survivor.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}, 1)
		if err != nil {
			done <- err
			return
		}
		if err := sess.RunCycle(make([]byte, sess.inBytes), make([]byte, sess.outBytes)); err != nil {
			done <- err
			return
		}
		done <- sess.Release()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("survivor: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("survivor wedged behind the dead client's mid-BAT barrier slot")
	}
}
