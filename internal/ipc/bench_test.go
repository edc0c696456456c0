package ipc

import (
	"fmt"
	"sync"
	"testing"

	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// BenchmarkDaemonThroughput measures full SND+STR+STP+RCV cycles against
// a live daemon at several client counts, pipelined (one BAT round trip)
// versus serial (four round trips), over every transport. One op is one
// round: every client completes one cycle. It is a smoke benchmark (`make
// bench-short`); the numbers performance claims are judged by come from
// bench/ (BENCHMARK.json), which drives real child daemons.
func BenchmarkDaemonThroughput(b *testing.B) {
	for _, tr := range []struct{ name, addr string }{
		{"inproc", "inproc://bench-daemon"},
		{"unix", "unix:///tmp/gvmd-bench.sock"},
		{"tcp", "tcp://127.0.0.1:0"},
		{"ring", "ring:///tmp/gvmd-bench-ring.sock"},
	} {
		b.Run(tr.name, func(b *testing.B) {
			s := startDaemon(b, ServerConfig{Listen: []string{tr.addr}, Functional: true})
			for _, clients := range []int{1, 8} {
				for _, mode := range []string{"pipelined", "serial"} {
					b.Run(fmt.Sprintf("c%d-%s", clients, mode), func(b *testing.B) {
						benchCycles(b, s.Addr(), s.dir, clients, mode == "serial")
					})
				}
			}
		})
	}
}

func benchCycles(b *testing.B, addr, shmDir string, clients int, serial bool) {
	b.Helper()
	cs := make([]*Client, clients)
	sess := make([]*Session, clients)
	ins := make([][]byte, clients)
	outs := make([][]byte, clients)
	defer func() {
		for i := range cs {
			if sess[i] != nil {
				sess[i].Release()
			}
			if cs[i] != nil {
				cs[i].Close()
			}
		}
	}()
	for i := range cs {
		c, err := DialOptions(addr, Options{ShmDir: shmDir, NoPipeline: serial})
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = c
		sess[i], err = c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = make([]byte, sess[i].inBytes)
		outs[i] = make([]byte, sess[i].outBytes)
		if err := sess[i].RunCycle(ins[i], outs[i]); err != nil { // warm up
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		var wg sync.WaitGroup
		errs := make([]error, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = sess[i].RunCycle(ins[i], outs[i])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCrossNodeMigration measures one cross-node move of a staged
// 16 MiB-footprint vecadd between two inproc daemons: MIG off one (extract
// and encode), then ADP onto the other (decode and adopt). The session
// goes back and forth, so one op is one MIG plus one ADP.
func BenchmarkCrossNodeMigration(b *testing.B) {
	const n = 1398101 // 12 bytes an element: a 16 MiB footprint
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}
	var conns [2]*transport.Conn
	for i := range conns {
		s := startDaemon(b, ServerConfig{Listen: []string{fmt.Sprintf("inproc://bench-mig-%d", i)}, Functional: true})
		conns[i] = dialRaw(b, s.Addr())
	}
	trip := func(c *transport.Conn, req *transport.Request) *transport.Response {
		if err := c.WriteRequest(req); err != nil {
			b.Fatal(err)
		}
		resp, err := c.ReadResponse()
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != "ACK" {
			b.Fatalf("%s: %s", req.Verb, resp.Err)
		}
		return resp
	}
	id := trip(conns[0], &transport.Request{Verb: "REQ", Ref: &ref, Plane: transport.PlaneInline}).Session
	trip(conns[0], &transport.Request{Verb: "SND", Session: id, Data: make([]byte, 2*n*4)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The blob aliases the source connection's read buffer until its next read.
		blob := trip(conns[i%2], &transport.Request{Verb: "MIG", Session: id}).Data
		id = trip(conns[(i+1)%2], &transport.Request{Verb: "ADP", Ref: &ref, Data: blob}).Session
	}
}
