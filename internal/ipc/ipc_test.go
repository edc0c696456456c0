package ipc

import (
	"cmp"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"gpuvirt/internal/cuda"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

func tempSocket(t testing.TB) string {
	t.Helper()
	f, err := os.CreateTemp("/tmp", "gvmd-*.sock")
	if err != nil {
		t.Fatal(err)
	}
	path := f.Name()
	f.Close()
	os.Remove(path)
	t.Cleanup(func() { os.Remove(path) })
	return path
}

// daemon is a test's gvmd, started by startDaemon.
type daemon struct {
	*Server
	dir    string      // its shm directory
	closed atomic.Bool // the test closed it itself
}

// Close closes the daemon, noting that the test did.
func (d *daemon) Close() error {
	d.closed.Store(true)
	return d.Server.Close()
}

// fleets holds each running test's daemons, in start order.
var (
	fleetsMu sync.Mutex
	fleets   = map[testing.TB][]*daemon{}
)

// startDaemon is how an ipc test starts a daemon: cfg, on a unix socket
// and an shm directory of the test's own unless it names them. A test's
// daemons end together, in one order, after every cleanup registered since
// the first of them started (every client's, dial's): each daemon's audit,
// which fails the test on whatever it still holds, then Close, then the
// audit once more — the shutdown path — and a scrape of its registry. The
// audit reads the frame-buffer pool process-wide, so it waits for every
// client of every daemon.
func startDaemon(tb testing.TB, cfg ServerConfig) *daemon {
	tb.Helper()
	if cfg.ShmDir == "" {
		cfg.ShmDir = tb.TempDir() // its removal runs after the daemons end
	}
	if len(cfg.Listen) == 0 {
		cfg.Listen = []string{"unix://" + tempSocket(tb)}
	}
	s, err := NewServer(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	d := &daemon{Server: s, dir: cfg.ShmDir}
	fleetsMu.Lock()
	fleet, ok := fleets[tb]
	fleets[tb] = append(fleet, d)
	fleetsMu.Unlock()
	if !ok {
		tb.Cleanup(func() { endDaemons(tb) })
	}
	return d
}

// endDaemons ends tb's daemons: audits, then Close, then audits again and
// scrapes. A daemon the test closed itself is read once.
func endDaemons(tb testing.TB) {
	fleetsMu.Lock()
	fleet := fleets[tb]
	delete(fleets, tb)
	fleetsMu.Unlock()
	audit := func(d *daemon, when string) {
		if !tb.Failed() {
			for _, item := range d.Audit() {
				tb.Errorf("%s still holds %s%s", d.Addr(), item, when)
			}
		}
	}
	// The serving daemons first: their audits wait until the pool the audit
	// reads process-wide has every buffer back, and a closed one is read once.
	for _, closed := range []bool{false, true} {
		for _, d := range fleet {
			if d.closed.Load() == closed {
				audit(d, "")
			}
		}
	}
	for _, d := range fleet {
		if err := d.Close(); err != nil {
			tb.Errorf("close %s: %v", d.Addr(), err)
		}
	}
	for _, d := range fleet { // after every Close: daemons may share an shm directory
		audit(d, " after Close")
		if err := d.cfg.Metrics.WritePrometheus(io.Discard); err != nil {
			tb.Errorf("scrape %s after close: %v", d.Addr(), err)
		}
	}
}

// dial connects a client to d's first address, on d's shm directory unless
// o names one; the client closes before d's audit.
func (d *daemon) dial(tb testing.TB, o Options) *Client {
	tb.Helper()
	o.ShmDir = cmp.Or(o.ShmDir, d.dir)
	c, err := DialOptions(d.Addr(), o)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

func TestSingleClientFunctionalVecAdd(t *testing.T) {
	c := startDaemon(t, ServerConfig{Functional: true}).dial(t, Options{})

	const n = 2048
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess.inBytes != 2*n*4 || sess.outBytes != n*4 {
		t.Fatalf("sizes = %d/%d", sess.inBytes, sess.outBytes)
	}
	in := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		in[i] = float32(i)
		in[n+i] = 10
	}
	out := make([]byte, n*4)
	if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
		t.Fatal(err)
	}
	res := cuda.Float32s(byteMem(out), 0, n)
	for i := 0; i < n; i++ {
		if res[i] != float32(i)+10 {
			t.Fatalf("out[%d] = %g", i, res[i])
		}
	}
	if sess.VirtualMS <= 0 {
		t.Fatal("no virtual time reported")
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCycleIsBareCycle: a daemon's shards are managers of the zero
// gvm.Config, so one timing-only vecadd(2^20) cycle advances a daemon's
// virtual clock by exactly what the same cycle costs on a bare engine
// built from that zero Config: pinned staging, no front-end cost.
func TestDaemonCycleIsBareCycle(t *testing.T) {
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1 << 20}}
	spec := workloads.VectorAdd(1 << 20).Spec(0)

	env := sim.NewEnv()
	m := gvm.New(env, gvm.Config{Device: gpusim.MustNew(env, gpusim.Config{Arch: fermi.TeslaC2070()})})
	m.Start()
	var bare sim.Duration
	env.Go(func(p *sim.Proc) {
		p.Wait(m.Ready())
		id, err := m.OpenSession(p, gvm.Request{Spec: spec})
		if err != nil {
			t.Error(err)
			return
		}
		var outcome *sim.Event
		if err := m.BindDirect(id, nil, nil, func(v gvm.Verb, st gvm.Status, msg string) {
			if st != gvm.ACK {
				t.Errorf("%v: %v %s", v, st, msg)
			}
			outcome.Fire(nil)
		}); err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		for _, v := range []gvm.Verb{gvm.SND, gvm.STR, gvm.STP, gvm.RCV} {
			outcome = env.NewEvent()
			if err := m.DirectVerb(id, v); err != nil {
				t.Error(err)
				return
			}
			p.Wait(outcome)
		}
		bare = p.Now().Sub(t0)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}

	c := startDaemon(t, ServerConfig{}).dial(t, Options{})
	sess, err := c.Request(ref, 0)
	if err != nil {
		t.Fatal(err)
	}
	var clock [2]float64
	for i := range clock {
		if err := sess.RunCycle(nil, nil); err != nil {
			t.Fatal(err)
		}
		clock[i] = sess.VirtualMS
	}
	if got := sim.Duration(math.Round((clock[1] - clock[0]) * 1e6)); got != bare {
		t.Fatalf("daemon cycle advanced the virtual clock %v, bare zero-Config cycle %v", got, bare)
	}
}

type byteMem []byte

func (b byteMem) Bytes(p cuda.DevPtr, n int64) []byte { return b[p : int64(p)+n] }

func TestBarrierAcrossRealConnections(t *testing.T) {
	s := startDaemon(t, ServerConfig{Parties: 3})
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOptions(s.Addr(), Options{ShmDir: s.dir})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "ep", Params: map[string]int{"m": 16, "grid": 4}}, i)
			if err != nil {
				errs[i] = err
				return
			}
			if err := sess.RunCycle(nil, nil); err != nil {
				errs[i] = err
				return
			}
			errs[i] = sess.Release()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	c := startDaemon(t, ServerConfig{}).dial(t, Options{})
	if _, err := c.Request(workloads.Ref{Name: "nope"}, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestProtocolMisuse(t *testing.T) {
	c := startDaemon(t, ServerConfig{}).dial(t, Options{})
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// STP before STR is rejected rather than hanging the daemon.
	if err := sess.verb("STP"); err == nil {
		t.Fatal("STP before STR accepted")
	}
	// Unknown session.
	if _, err := c.roundTrip(&Request{Verb: "SND", Session: 9999}); err == nil {
		t.Fatal("unknown session accepted")
	}
	// Unknown verb.
	if _, err := c.roundTrip(&Request{Verb: "BOGUS", Session: sess.ID()}); err == nil {
		t.Fatal("unknown verb accepted")
	}
}

// TestDisconnectCleansUpSessions: a client hangs up holding a session,
// and the daemon's audit finds it released.
func TestDisconnectCleansUpSessions(t *testing.T) {
	c := startDaemon(t, ServerConfig{}).dial(t, Options{})
	if _, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// submitProbe runs fn in a turn of its own as one shard's owner (test
// helper): it synchronizes with that shard's owner work before reading.
func (s *Server) submitProbe(shard int, fn func()) bool {
	return s.submit(shard, fn, probed)
}

// probed is submitProbe's done: a probe is over when its turn is.
var probed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func TestMultipleCyclesOneSession(t *testing.T) {
	c := startDaemon(t, ServerConfig{Functional: true}).dial(t, Options{})
	const n = 512
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 2*n)
	out := make([]byte, n*4)
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < n; i++ {
			in[i] = float32(i * cycle)
			in[n+i] = 1
		}
		if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		res := cuda.Float32s(byteMem(out), 0, n)
		for i := 0; i < n; i++ {
			if res[i] != float32(i*cycle)+1 {
				t.Fatalf("cycle %d: out[%d] = %g", cycle, i, res[i])
			}
		}
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.FromRef(workloads.Ref{Name: name})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.Spec == nil {
			t.Errorf("%s: nil spec", name)
		}
	}
	if _, err := workloads.FromRef(workloads.Ref{Name: "bogus"}); err == nil {
		t.Error("bogus ref accepted")
	}
}

func TestDaemonBarrierTimeoutUnwedges(t *testing.T) {
	// Parties=3 but only two clients ever show up: with a barrier
	// timeout the daemon flushes the partial batch and both complete.
	s := startDaemon(t, ServerConfig{Parties: 3, BarrierTimeout: 100 * sim.Millisecond})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOptions(s.Addr(), Options{ShmDir: s.dir})
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "ep", Params: map[string]int{"m": 12, "grid": 4}}, i)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = sess.RunCycle(nil, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestDaemonMultiGPU(t *testing.T) {
	// Barriers are per shard: with 2 shards at Parties=2 each,
	// least-sessions placement puts 2 of the 4 clients on each shard and
	// each shard's barrier fills independently.
	s := startDaemon(t, ServerConfig{Parties: 2, GPUs: 2})
	const clients = 4
	var wg, placed sync.WaitGroup
	errs := make([]error, clients)
	placed.Add(clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOptions(s.Addr(), Options{ShmDir: s.dir})
			if err != nil {
				placed.Done()
				errs[i] = err
				return
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 4096}}, i)
			// No cycle starts before every session is placed: a pair that
			// finished and hung up early would free its shard for both late
			// arrivals' placements to split across, one per barrier.
			placed.Done()
			if err != nil {
				errs[i] = err
				return
			}
			placed.Wait()
			errs[i] = sess.RunCycle(nil, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := s.node.NumShards(); got != 2 {
		t.Fatalf("daemon owns %d shards, want 2", got)
	}
	for i := 0; i < 2; i++ {
		mgr := s.node.Shard(i).Mgr
		if got := mgr.SessionsOpened(); got != 2 {
			t.Errorf("gpu %d opened %d sessions, want 2", i, got)
		}
		if got := mgr.Flushes(); got != 1 {
			t.Errorf("gpu %d flushed %d batches, want 1", i, got)
		}
	}
}
