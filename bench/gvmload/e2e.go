package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"gpuvirt/internal/ipc"
)

// Run shape, identical on every commit: this many cold starts with fresh
// daemons each, half before and half after an untimed warm-up and the
// timed phase.
const (
	coldStarts = 31
	warmUp     = 2 * time.Second
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and diagnostics for the human-readable table
}

// report is what one run of one workload produced.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string // why the run is not correct; empty when it is
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// bench is one started topology with its clients connected and every
// session verified once.
type bench struct {
	st      *stack
	clients []*client
}

// coldStart times what a user waits for before the first result: from
// the first exec of a daemon, through addr-file read, Dial and a Request
// for every session, to the first verified cycle on each.
func (h harness) coldStart(sp spec, seed int64, functional bool, o ipc.Options) (*bench, time.Duration, error) {
	// Generating the inputs is the harness's work, not the system's: at
	// n=2^20 it takes longer than the start it would be charged to.
	data := genWorkload(sp, seed)
	t0 := time.Now()
	st, err := h.start(sp, functional)
	if err != nil {
		return nil, 0, err
	}
	clients, err := connect(sp, st.front.addr, st.front.shm, data, o)
	if err != nil {
		st.stop()
		return nil, 0, err
	}
	b := &bench{st, clients}
	if !functional {
		for _, cl := range clients {
			cl.timingOnly()
		}
	}
	if err := verifyAll(clients, pipelined); err != nil {
		b.close()
		return nil, 0, err
	}
	return b, time.Since(t0), nil
}

// close tears the bench down and returns the children's summed peak RSS.
func (b *bench) close() (int64, error) {
	disconnect(b.clients)
	return b.st.stop()
}

// coldStartSeries runs n cold starts back to back, with fresh daemons
// each time, and returns the times. They run on every CPU the process
// has, as a user's start would: confined to one CPU a start's level
// differed by a third from one run to the next (README).
func (h harness) coldStartSeries(sp spec, seed int64, n int) ([]int64, error) {
	times := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		b, d, err := h.coldStart(sp, seed, true, ipc.Options{})
		if err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		times = append(times, int64(d))
		if _, err := b.close(); err != nil {
			return nil, fmt.Errorf("cold start %d teardown: %w", i, err)
		}
	}
	return times, nil
}

// confineFor confines this process, and the daemons it spawns from now
// on, to one CPU when the workload asks for that. The returned function
// lifts the confinement again.
func confineFor(sp spec) (release func() error, err error) {
	if !sp.oneCPU {
		return func() error { return nil }, nil
	}
	if release, err = confine(); err != nil {
		return nil, fmt.Errorf("confine %s to one CPU: %w", sp.name, err)
	}
	return release, nil
}

// scrapeAll samples every daemon of the stack, in st.daemons order.
func (st *stack) scrapeAll() ([]sample, error) {
	out := make([]sample, len(st.daemons))
	for i, d := range st.daemons {
		s, err := d.scrape()
		if err != nil {
			return nil, fmt.Errorf("scrape %s %s: %w", d.role, d.addr, err)
		}
		out[i] = s
	}
	return out, nil
}

// delta is after − before summed over the daemons of one role.
func (st *stack) delta(before, after []sample, role string) sample {
	var sum sample
	for i, d := range st.daemons {
		if d.role == role {
			sum.add(after[i].sub(before[i]))
		}
	}
	return sum
}

// checkResidency is the workload validity check: oversub exists to land
// every cycle on an evicted session, and nothing else may evict at all.
func checkResidency(r *report, sp spec, delta sample, cycles int) {
	restores := float64(delta.total("gvm_restores_total"))
	switch {
	case cycles == 0:
	case sp.overcommit > 1 && restores/float64(cycles) < 0.9:
		r.problem("%.3f restores per cycle, want >= 0.9: the load no longer lands on evicted sessions", restores/float64(cycles))
	case sp.overcommit <= 1 && restores != 0:
		r.problem("%.0f restores on a workload that must not evict", restores)
	}
}

// runE2E is the end-to-end run: cold starts, warm-up, the timed
// closed-loop phase, teardown.
func (h harness) runE2E(sp spec, seed int64, dur time.Duration) (report, error) {
	var r report
	// Cold starts are taken at both ends of the run: two looks at the
	// machine, twenty-odd seconds apart, instead of one.
	starts, err := h.coldStartSeries(sp, seed, h.starts-h.starts/2)
	if err != nil {
		return r, err
	}
	// The phase's own daemons are one more start, untimed, made after
	// confining so that they size themselves for the one CPU.
	release, err := confineFor(sp)
	if err != nil {
		return r, err
	}
	defer release()
	b, _, err := h.coldStart(sp, seed, true, ipc.Options{})
	if err != nil {
		return r, err
	}
	before, err := b.st.scrapeAll()
	if err != nil {
		b.close()
		return r, err
	}
	if sp.router() {
		// One client per node is what makes this the two-node workload.
		for i, d := range b.st.daemons[:sp.nodes] {
			if open := before[i].total("gvm_open_sessions"); open != 1 {
				r.problem("node %s holds %d sessions, want 1", d.addr, open)
			}
		}
	}

	p := drive(b.clients, h.warm, dur, sp.window, pipelined, b.st.dead)

	if after, err := b.st.scrapeAll(); err != nil {
		p.err = errors.Join(p.err, err)
	} else {
		// The scrapes bracket the warm-up too, which p does not count.
		all := -sp.clients * sp.sessions // each session's cold-start cycle came before
		for _, cl := range b.clients {
			for i := range cl.data {
				all += cl.data[i].cycles
			}
		}
		checkResidency(&r, sp, b.st.delta(before, after, "gvmd"), all)
	}
	rss, err := b.close()
	if err := errors.Join(err, release()); err != nil {
		r.problem("teardown: %v", err)
	}
	more, err := h.coldStartSeries(sp, seed, h.starts/2)
	if err != nil {
		return r, err
	}
	starts = append(starts, more...)
	slices.Sort(starts)

	r.attempted, r.failed = p.attempted, p.failed
	if p.err != nil {
		r.problem("%v", p.err)
	}
	if p.cycles() == 0 {
		return r, errors.Join(errors.New("no cycle completed"), p.err)
	}
	window := dur / time.Duration(len(p.windows))
	rates := sortedCopy(p.windows)
	r.add("setup_s", quantile(starts, 0.25)/1e9, "s",
		fmt.Sprintf("lower quartile of %d cold starts, %d before the phase and %d after; median %.2f ms, p75 %.2f ms", len(starts), h.starts-h.starts/2, h.starts/2, quantile(starts, 0.5)/1e6, quantile(starts, 0.75)/1e6))
	r.add("cycle_p10_us", quantile(p.winP10, 0.10)/1e3, "us",
		fmt.Sprintf("lower decile of %d windows' p10; all n=%d cycles: p10 %.2f, p50 %.2f, p90 %.2f, p99 %.2f us", len(p.winP10), p.cycles(), quantile(p.lat, 0.1)/1e3, quantile(p.lat, 0.5)/1e3, quantile(p.lat, 0.9)/1e3, quantile(p.lat, 0.99)/1e3))
	r.add("cycles_per_s", quantile(rates, 0.95)/window.Seconds(), "1/s",
		fmt.Sprintf("p95 of %d windows of %v; median window %.1f/s, whole phase %.1f/s", len(rates), window, quantile(rates, 0.5)/window.Seconds(), float64(p.cycles())/dur.Seconds()))
	r.add("daemon_rss_mb", float64(rss)/1e6, "MB",
		fmt.Sprintf("sum of VmHWM over %d daemons", len(b.st.daemons)))
	return r, nil
}
