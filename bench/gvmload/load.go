package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gpuvirt/internal/ipc"
)

// cycleTimeout is the per-cycle watchdog: the client's round-trip
// deadline on sockets and the ring plane's park deadline. A cycle that
// overruns it is a failed operation, not a client parked forever.
const cycleTimeout = 10 * time.Second

// client is one closed-loop load generator: one connection, its
// sessions, and the seeded data for each. It waits for every cycle's
// reply before sending the next, as an SPMD rank waits for its RCV.
type client struct {
	c    *ipc.Client
	sess []*ipc.Session
	data []sessionData
	out  []byte
	next int // round-robin cursor over sess
}

// cycleFn performs one SND→STR→STP→RCV cycle on a session.
type cycleFn func(s *ipc.Session, in, out []byte) error

func pipelined(s *ipc.Session, in, out []byte) error { return s.RunCycle(in, out) }

// connect dials sp.clients connections to addr and opens every
// session; data holds the sessions' generated inputs in session order.
func connect(sp spec, addr, shmDir string, data []sessionData, o ipc.Options) ([]*client, error) {
	o.ShmDir = shmDir
	if o.Timeout == 0 {
		o.Timeout = cycleTimeout
	}
	clients := make([]*client, 0, sp.clients)
	for i := 0; i < sp.clients; i++ {
		c, err := ipc.DialOptions(addr, o)
		if err != nil {
			disconnect(clients)
			return nil, err
		}
		cl := &client{c: c, out: make([]byte, sp.outBytes())}
		clients = append(clients, cl)
		for j := 0; j < sp.sessions; j++ {
			id := i*sp.sessions + j
			s, err := c.Request(sp.ref(), id)
			if err != nil {
				disconnect(clients)
				return nil, fmt.Errorf("REQ session %d: %w", id, err)
			}
			cl.sess = append(cl.sess, s)
			cl.data = append(cl.data, data[id])
		}
	}
	return clients, nil
}

// disconnect releases every session and closes every connection. Errors
// are dropped: it also runs after a daemon has died, when every call
// fails, and the daemons release abandoned sessions on hang-up anyway.
func disconnect(clients []*client) {
	for _, cl := range clients {
		for _, s := range cl.sess {
			_ = s.Release()
		}
		_ = cl.c.Close()
	}
}

// cycle runs one verified cycle on the client's next session.
func (cl *client) cycle(fn cycleFn) (time.Time, time.Time, error) {
	i := cl.next
	cl.next = (i + 1) % len(cl.sess)
	sd := &cl.data[i]
	v := sd.cycles % variants
	begin := time.Now()
	err := fn(cl.sess[i], sd.in[v], cl.out)
	end := time.Now()
	if err == nil {
		sd.cycles++
		if !bytes.Equal(cl.out, sd.want[v]) {
			err = fmt.Errorf("session %d: output differs from the reference", cl.sess[i].ID())
		}
	}
	return begin, end, err
}

// verifyAll runs one verified cycle on every session of every client:
// the tail of a cold start.
func verifyAll(clients []*client, fn cycleFn) error {
	for _, cl := range clients {
		for range cl.sess {
			if _, _, err := cl.cycle(fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// phase is what one timed closed-loop phase measured.
type phase struct {
	lat       []int64   // wall ns of every completed cycle, verification excluded, sorted
	windows   []float64 // cycles completed in each window, clients summed
	winP10    []float64 // each window's 10th-percentile cycle ns, sorted
	attempted int
	failed    int
	err       error // the first failure

	win []int32 // while driving: the window each entry of lat completed in
}

func (p *phase) cycles() int { return len(p.lat) }

// minWindowCycles is how many cycles a window needs for its latency
// percentile to count.
const minWindowCycles = 5

// drive runs every client's closed loop for warm (untimed) plus dur
// (timed, cut into windows of the workload's spec.window). A cycle counts when it begins after the
// warm-up and completes inside the phase. A client's completions tile
// its timeline, verification (client think time) included, and a cycle
// that straddles a window edge is credited to both sides in proportion,
// so short windows of long cycles are not quantised. A cycle that
// errors, times out or returns wrong bytes is a failed operation, and so
// is everything a client could not attempt because a daemon went away:
// the client keeps trying (paced, so a dead socket does not spin) until
// the phase ends, or until dead closes and the rest of its phase is
// written off.
func drive(clients []*client, warm, dur, window time.Duration, fn cycleFn, dead <-chan struct{}) phase {
	windows := max(1, int(dur/window))
	width := dur / time.Duration(windows)
	start := time.Now().Add(warm)
	stop := start.Add(dur)
	parts := make([]phase, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(p *phase, cl *client) {
			defer wg.Done()
			p.windows = make([]float64, windows)
			warmCycles := 0
			prev := start // the previous completion
			for {
				begin, end, err := cl.cycle(fn)
				switch {
				case err != nil:
					p.attempted++
					p.failed++
					if p.err == nil {
						p.err = err
					}
					select {
					case <-dead:
						// Nothing more can be attempted. Count what the client
						// would have completed in the rest of the phase, at
						// the rate it had been going, as failed.
						if done := end.Sub(start); done > 0 && end.Before(stop) {
							lost := int(float64(len(p.lat)) * float64(stop.Sub(end)) / float64(done))
							p.attempted += lost
							p.failed += lost
						}
						return
					case <-time.After(10 * time.Millisecond):
					}
				case begin.Before(start):
					warmCycles++
				case end.Before(stop):
					if p.lat == nil {
						// Sized from the warm-up rate, so the timed loop
						// does not stop to grow them.
						n := 1<<16 + int(1.5*float64(warmCycles)*float64(dur)/float64(warm+1))
						p.lat, p.win = make([]int64, 0, n), make([]int32, 0, n)
					}
					p.attempted++
					to := end.Sub(start)
					p.lat, p.win = append(p.lat, int64(end.Sub(begin))), append(p.win, int32(min(int(to/width), windows-1)))
					for from := prev.Sub(start); from < to; {
						// The last window runs to the end of the phase, taking
						// what dur/windows rounded off.
						i, edge := int(from/width), to
						if i < windows-1 {
							edge = min(to, time.Duration(i+1)*width)
						} else {
							i = windows - 1
						}
						p.windows[i] += float64(edge-from) / float64(end.Sub(prev))
						from = edge
					}
					prev = end
				}
				if !end.Before(stop) {
					return
				}
			}
		}(&parts[i], cl)
	}
	wg.Wait()

	total := phase{windows: make([]float64, windows)}
	byWindow := make([][]int64, windows)
	for _, p := range parts {
		for i, l := range p.lat {
			byWindow[p.win[i]] = append(byWindow[p.win[i]], l)
		}
		for w, n := range p.windows {
			total.windows[w] += n
		}
		total.attempted += p.attempted
		total.failed += p.failed
		total.err = errors.Join(total.err, p.err)
	}
	for _, lat := range byWindow {
		slices.Sort(lat)
		if len(lat) >= minWindowCycles {
			total.winP10 = append(total.winP10, quantile(lat, 0.10))
		}
		total.lat = append(total.lat, lat...)
	}
	slices.Sort(total.winP10)
	slices.Sort(total.lat)
	return total
}

// quantile is the q-quantile of sorted values, interpolating linearly
// between the two nearest ranks.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// sortedCopy returns v sorted, leaving v (window order) alone.
func sortedCopy(v []float64) []float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// timingOnly drops the payloads: a -functional=false daemon carries no
// bytes, so cycles send and receive nil.
func (cl *client) timingOnly() {
	cl.out = nil
	for i := range cl.data {
		cl.data[i] = sessionData{}
	}
}
