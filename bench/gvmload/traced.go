package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"gpuvirt/internal/ipc"
	"gpuvirt/internal/shm"
)

// span is one timed interval of a traced cycle. Spans of one cycle share
// Cycle and Client; Parent is the ID of the span that caused this one
// (-1 for the cycle itself). A span's self time is its duration minus
// the part of it its children cover.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cycle  int    `json:"cycle"`
	Client int    `json:"client"`
}

// recorder keeps one client's spans in memory; nothing is written until
// the phase is over.
type recorder struct {
	client int
	t0     time.Time
	cycle  int
	spans  []span
}

func (rec *recorder) span(name string, parent int, f func() error) (int, error) {
	id := len(rec.spans)
	rec.spans = append(rec.spans, span{Name: name, ID: id, Parent: parent, Cycle: rec.cycle, Client: rec.client})
	start := time.Now()
	err := f()
	end := time.Now()
	rec.spans[id].Start, rec.spans[id].End = int64(start.Sub(rec.t0)), int64(end.Sub(rec.t0))
	return id, err
}

// tracedCycle is the serial cycle with a span around each call into the
// ipc layer: cycle → {SND, STR, STP, RCV}.
func tracedCycle(recs map[*ipc.Session]*recorder) cycleFn {
	return func(s *ipc.Session, in, out []byte) error {
		rec := recs[s]
		root := len(rec.spans)
		_, err := rec.span("cycle", -1, func() error {
			for _, step := range []struct {
				name string
				f    func() error
			}{
				{"SND", func() error { return s.SendInput(in) }},
				{"STR", s.Start},
				{"STP", s.Wait},
				{"RCV", func() error { return s.Receive(out) }},
			} {
				if _, err := rec.span(step.name, root, step.f); err != nil {
					return err
				}
			}
			return nil
		})
		rec.cycle++
		return err
	}
}

// spanSumLimit is how far, in percent, the summed median span self times
// may lie from the median cycle they were recorded in before a traced
// run counts as incorrect.
const spanSumLimit = 15

// checkSpanSum holds a traced run to spanSumLimit. It is a timing check,
// so main applies it to full-length runs and the schema test, which
// asserts no timing on its 300 ms runs, does not.
func (r *report) checkSpanSum() {
	for _, m := range r.metrics {
		if m.name == "trace.span_sum_error_pct" && math.Abs(m.value) > spanSumLimit {
			r.problem("span self times are %.1f%% off the cycle time, limit %d%%", m.value, spanSumLimit)
		}
	}
}

// spansWritten caps the cycles per client that reach the spans file; the
// statistics use every recorded cycle.
const spansWritten = 2000

// inproc runs one closed-loop phase against in-process daemons with the
// workload's exact topology and payload sizes: no process boundary, and
// no socket except ring's bootstrap listener.
func (h harness) inproc(sp spec, seed int64, functional bool, o ipc.Options, dur time.Duration, fn func([]*client) cycleFn) (phase, error) {
	b, _, err := harness{work: h.work}.coldStart(sp, seed, functional, o)
	if err != nil {
		return phase{}, err
	}
	p := drive(b.clients, dur/4, dur, sp.window, fn(b.clients), b.st.dead)
	_, err = b.close()
	return p, errors.Join(p.err, err)
}

func always(fn cycleFn) func([]*client) cycleFn { return func([]*client) cycleFn { return fn } }

// runTraced is the per-layer run. It measures from outside the program
// only: scrapes of every spawned daemon's -metrics endpoint, pprof
// MemStats trailer and /proc entries around a closed-loop phase; harness
// timers and client-side counters; spans recorded by this program around
// its calls into the ipc layer of in-process daemons; and each layer's
// public functions timed in isolation. Its timings are diagnostics, not
// the end-to-end figures.
func (h harness) runTraced(sp spec, seed int64, dur time.Duration) (report, error) {
	var r report

	// Phase 1: the workload against child daemons, scraped before and after.
	starts, err := h.coldStartSeries(sp, seed, h.starts)
	if err != nil {
		return r, err
	}
	slices.Sort(starts)
	// Everything timed below runs in the end-to-end phase's CPU layout.
	release, err := confineFor(sp)
	if err != nil {
		return r, err
	}
	defer release()
	b, _, err := h.coldStart(sp, seed, true, ipc.Options{})
	if err != nil {
		return r, err
	}
	st := b.st
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	// Two idle scrapes first: their difference is what one scrape itself
	// costs the daemon, which the loaded interval contains once.
	idle, err := st.scrapeAll()
	if err != nil {
		return r, err
	}
	before, err := st.scrapeAll()
	if err != nil {
		return r, err
	}
	c0 := takeCounters(sp, b.clients)
	p := drive(b.clients, h.warm/2, dur/3, sp.window, pipelined, st.dead)
	c1 := takeCounters(sp, b.clients)
	after, err := st.scrapeAll()
	if err != nil {
		return r, errors.Join(err, p.err)
	}
	r.attempted, r.failed = p.attempted, p.failed
	if p.err != nil {
		r.problem("%v", p.err)
	}
	cycles := float64(c1.cycles - c0.cycles)
	if cycles == 0 {
		return r, errors.Join(errors.New("no cycle completed"), p.err)
	}
	load := func(role string) sample { return st.delta(before, after, role).sub(st.delta(idle, before, role)) }
	gvmd, router := load("gvmd"), load("gvmfed")
	checkResidency(&r, sp, gvmd, int(cycles))

	window := (dur / 3) / time.Duration(len(p.windows))
	n := fmt.Sprintf("n=%d cycles", p.cycles())
	r.add("ipc.cycle_p50_us", quantile(p.lat, 0.5)/1e3, "us", n)
	r.add("ipc.cycle_p90_us", quantile(p.lat, 0.9)/1e3, "us", n)
	r.add("ipc.cycle_p99_us", quantile(p.lat, 0.99)/1e3, "us", n)
	r.add("ipc.window_median_per_s", quantile(sortedCopy(p.windows), 0.5)/window.Seconds(), "1/s", fmt.Sprintf("%d windows of %v", len(p.windows), window))
	r.add("ipc.cold_start_p25_ms", quantile(starts, 0.25)/1e6, "ms", fmt.Sprintf("%d cold starts", len(starts)))
	r.add("ipc.cold_start_p75_ms", quantile(starts, 0.75)/1e6, "ms", "")
	r.add("ipc.round_trips_per_cycle", float64(c1.trips-c0.trips)/cycles, "count", "Client.RoundTrips + Session.RingTrips, exact")
	r.add("ipc.client_mallocs_per_cycle", float64(c1.mallocs-c0.mallocs)/cycles, "count", "runtime.MemStats of this process")
	r.add("shm.client_futex_waits_per_cycle", float64(c1.futexWaits-c0.futexWaits)/cycles, "count", "shm.FutexStats of this process")
	// Whole simulated nanoseconds over whole cycles, so that a constant
	// per-cycle cost prints the same digits whatever the cycle count.
	r.add("gpusim.virtual_ms_per_cycle", math.Round((c1.virtualMS-c0.virtualMS)*1e6)/cycles/1e6, "ms", "simulated GPU time, not host time")

	const tickUS = 1e6 / 100 // USER_HZ
	r.add("ipc.daemon_user_us_per_cycle", float64(gvmd.userTicks)*tickUS/cycles, "us", "/proc utime, all gvmd")
	r.add("ipc.daemon_sys_us_per_cycle", float64(gvmd.sysTicks)*tickUS/cycles, "us", "/proc stime, all gvmd")
	r.add("ipc.daemon_syscalls_per_cycle", float64(gvmd.syscalls)/cycles, "count", "/proc io syscr+syscw, all gvmd")
	r.add("ipc.daemon_mallocs_per_cycle", float64(gvmd.mallocs)/cycles, "count", "pprof MemStats, all gvmd")
	r.add("ipc.daemon_alloc_bytes_per_cycle", float64(gvmd.allocBytes)/cycles, "B", "")
	r.add("ipc.daemon_gc_per_kcycle", 1000*float64(gvmd.numGC)/cycles, "count", "")
	r.add("ipc.owner_queue_wait_p50_ns", gvmd.histQuantile("gvmd_owner_queue_wait_ns", 0.5), "ns", "log2 buckets, interpolated")
	r.add("ipc.verb_latency_bat_p50_ns", gvmd.histQuantile("gvmd_verb_latency_ns", 0.5, `verb="BAT"`), "ns", "log2 buckets, interpolated")
	var pool sample
	pool.add(gvmd)
	pool.add(router)
	if gets := pool.total("transport_pool_gets_total"); gets > 0 {
		r.add("transport.pool_miss_ratio", float64(pool.total("transport_pool_misses_total"))/float64(gets), "ratio", fmt.Sprintf("%d gets, all daemons", gets))
	} else {
		r.add("transport.pool_miss_ratio", 0, "ratio", "no pooled buffer was taken")
	}
	r.add("gvm.restores_per_cycle", float64(gvmd.total("gvm_restores_total"))/cycles, "count", "")
	r.add("gvm.evictions_per_cycle", float64(gvmd.total("gvm_evictions_total"))/cycles, "count", "")
	r.add("gvm.swap_bytes_per_cycle", float64(gvmd.total("gvm_swap_bytes_total"))/cycles, "B", "both directions")
	r.add("gvm.turnaround_p50_ns", gvmd.histQuantile("gvm_turnaround_ns", 0.5), "ns", "virtual ns, log2 buckets, interpolated")
	r.add("gpusim.launches_per_cycle", float64(gvmd.total("gpusim_sched_launches_total"))/cycles, "count", "")
	r.add("fed.proxy_latency_bat_p50_ns", router.histQuantile("fed_proxy_latency_ns", 0.5, `verb="BAT"`), "ns", "0 without a router")
	r.add("fed.router_user_us_per_cycle", float64(router.userTicks)*tickUS/cycles, "us", "")
	r.add("fed.router_syscalls_per_cycle", float64(router.syscalls)/cycles, "count", "")
	r.add("fed.router_mallocs_per_cycle", float64(router.mallocs)/cycles, "count", "")

	hop, err := hopRatio(sp, st, b.clients, seed, dur/30)
	if err != nil {
		return r, err
	}
	r.add("fed.hop_x", hop, "x", "cycle p10 through the router / direct to its backends, 6 interleaved slices; 0 without a router")

	// The workload's own sessions go first: oversub leaves no room for one more.
	disconnect(b.clients)
	b.clients = nil
	reqRls, err := requestRelease(sp, st, 200)
	if err != nil {
		return r, err
	}
	r.add("ipc.req_rls_us", reqRls, "us", "median of 200 Request+Release")
	if err := layerBenches(&r, sp, st.dir, dur/120); err != nil {
		return r, err
	}
	_, err = b.close()
	b = nil
	if err != nil {
		r.problem("teardown: %v", err)
	}

	// Phase 2: no process boundary. Pipelined cycles with and without
	// the functional kernel, then serial cycles bare and with spans.
	each := dur / 15
	pipe, err := h.inproc(sp, seed, true, ipc.Options{}, each, always(pipelined))
	if err != nil {
		return r, err
	}
	r.add("ipc.inproc_cycle_p10_us", quantile(pipe.lat, 0.10)/1e3, "us", fmt.Sprintf("in-process daemons, n=%d", pipe.cycles()))
	nofunc, err := h.inproc(sp, seed, false, ipc.Options{}, each, always(pipelined))
	if err != nil {
		return r, err
	}
	r.add("gvm.inproc_nofunc_cycle_p10_us", quantile(nofunc.lat, 0.10)/1e3, "us", fmt.Sprintf("Functional:false, n=%d", nofunc.cycles()))
	serial, err := h.inproc(sp, seed, true, ipc.Options{NoPipeline: true}, each, always(pipelined))
	if err != nil {
		return r, err
	}
	var recs []*recorder
	traced, err := h.inproc(sp, seed, true, ipc.Options{NoPipeline: true}, each, func(clients []*client) cycleFn {
		t0 := time.Now()
		bySession := make(map[*ipc.Session]*recorder)
		for i, cl := range clients {
			rec := &recorder{client: i, t0: t0}
			recs = append(recs, rec)
			for _, s := range cl.sess {
				bySession[s] = rec
			}
		}
		return tracedCycle(bySession)
	})
	if err != nil {
		return r, err
	}
	self := spanStats(&r, recs)
	bare, withSpans := quantile(serial.lat, 0.10), quantile(traced.lat, 0.10)
	r.add("trace.serial_cycle_p10_us", bare/1e3, "us", fmt.Sprintf("4 round trips, no spans, n=%d", serial.cycles()))
	r.add("trace.overhead_pct", 100*(withSpans-bare)/bare, "%", fmt.Sprintf("traced serial cycle p10 %.2f us vs bare", withSpans/1e3))
	// Against the traced phase's own cycles, as load.go times them from
	// outside the spans: what the spans add to a cycle is the overhead
	// above, what they fail to cover is this.
	med := quantile(traced.lat, 0.5)
	r.add("trace.span_sum_error_pct", 100*(self-med)/med, "%", fmt.Sprintf("median span self times sum to %.2f us, the traced serial cycle's median is %.2f us", self/1e3, med/1e3))
	return r, h.writeSpans(sp, seed, recs)
}

// counters are the client-side running totals around a phase.
type counters struct {
	cycles, trips, mallocs, futexWaits int64
	virtualMS                          float64
}

func takeCounters(sp spec, clients []*client) counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = int64(ms.Mallocs)
	c.futexWaits, _ = shm.FutexStats()
	for _, cl := range clients {
		c.trips += cl.c.RoundTrips()
		// Every session of a daemon reads that daemon's one virtual clock.
		// Behind a router each connection lands on its own node, so the
		// nodes' clocks add up; otherwise all connections share one.
		var clock float64
		for i, s := range cl.sess {
			c.trips += s.RingTrips()
			c.cycles += int64(cl.data[i].cycles)
			clock = max(clock, s.VirtualMS)
		}
		if sp.router() {
			c.virtualMS += clock
		} else {
			c.virtualMS = max(c.virtualMS, clock)
		}
	}
	return c
}

// hopRatio measures what the router hop costs: the same clients' cycle
// p10 through the router over the p10 of twin clients dialling the
// backends directly, alternating in short slices so both see the same
// machine. 0 for a workload without a router.
func hopRatio(sp spec, st *stack, viaRouter []*client, seed int64, slice time.Duration) (float64, error) {
	if !sp.router() {
		return 0, nil
	}
	one := sp
	one.clients = 1
	var direct []*client
	defer func() { disconnect(direct) }()
	for i, d := range st.daemons[:sp.nodes] {
		cl, err := connect(one, d.addr, d.shm, genWorkload(one, seed+int64(1+i)), ipc.Options{})
		if err != nil {
			return 0, fmt.Errorf("dial backend %s: %w", d.addr, err)
		}
		direct = append(direct, cl...)
	}
	var routed, bare []int64
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			p := drive(viaRouter, 0, slice, sp.window, pipelined, st.dead)
			routed = append(routed, p.lat...)
		} else {
			p := drive(direct, 0, slice, sp.window, pipelined, st.dead)
			bare = append(bare, p.lat...)
		}
	}
	if len(routed) == 0 || len(bare) == 0 {
		return 0, errors.New("hop ratio: a slice completed no cycle")
	}
	slices.Sort(routed)
	slices.Sort(bare)
	return quantile(routed, 0.10) / quantile(bare, 0.10), nil
}

// requestRelease is the median µs of opening and releasing one session.
func requestRelease(sp spec, st *stack, n int) (float64, error) {
	c, err := ipc.DialOptions(st.front.addr, ipc.Options{ShmDir: st.front.shm, Timeout: cycleTimeout})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	times := make([]int64, n)
	for i := range times {
		t0 := time.Now()
		s, err := c.Request(sp.ref(), 0)
		if err != nil {
			return 0, fmt.Errorf("REQ: %w", err)
		}
		if err := s.Release(); err != nil {
			return 0, fmt.Errorf("RLS: %w", err)
		}
		times[i] = int64(time.Since(t0))
	}
	slices.Sort(times)
	return quantile(times, 0.5) / 1e3, nil
}

// spanStats reports the median self time of each span kind and returns
// the sum of the medians: what a cycle costs according to the spans.
func spanStats(r *report, recs []*recorder) float64 {
	selfs := make(map[string][]int64)
	for _, rec := range recs {
		for i, s := range rec.spans {
			if s.End == 0 {
				continue // the cycle an error cut short
			}
			self := s.End - s.Start
			if s.Parent == -1 {
				for _, c := range rec.spans[i+1:] {
					if c.Parent != s.ID {
						break
					}
					self -= c.End - c.Start
				}
			}
			selfs[s.Name] = append(selfs[s.Name], self)
		}
	}
	var sum float64
	for _, name := range []string{"cycle", "SND", "STR", "STP", "RCV"} {
		v := selfs[name]
		slices.Sort(v)
		med := quantile(v, 0.5)
		sum += med
		r.add("trace."+strings.ToLower(name)+"_self_us", med/1e3, "us", fmt.Sprintf("median self time of %d spans", len(v)))
	}
	return sum
}

// writeSpans writes the first spansWritten cycles of every client to
// <out>/spans-<workload>.json.
func (h harness) writeSpans(sp spec, seed int64, recs []*recorder) error {
	file := struct {
		Workload       string `json:"workload"`
		Seed           int64  `json:"seed"`
		CyclesRecorded int    `json:"cycles_recorded"`
		Spans          []span `json:"spans"`
	}{Workload: sp.name, Seed: seed}
	for _, rec := range recs {
		file.CyclesRecorded += rec.cycle
		for _, s := range rec.spans {
			if s.Cycle >= spansWritten {
				break
			}
			file.Spans = append(file.Spans, s)
		}
	}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(file)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(h.out, "spans-"+sp.name+".json"), raw, 0o644)
}
