//go:build go1.23

// The build line gives this file the go1.23 language version it needs for
// iter.Pull while go.mod (and bench/go.mod, which requires this module) stay
// at go 1.22.

package sim

import (
	"iter"
	"sync"
)

// Proc is a simulation process: user code the scheduler resumes one at a
// time. Its body runs on a worker coroutine from its first resume until it
// returns.
type Proc struct {
	env    *Env
	daemon bool
	// resume is the one handoff closure every park/unpark of this process
	// schedules, bound once at spawn so the hot path (Sleep, WaitUntil,
	// unblock) enters the calendar without allocating a fresh closure.
	resume func()
	fn     func(p *Proc) // the body, until the first resume starts it
	w      *worker       // the coroutine the body runs on, from first resume to exit
}

// Daemonize marks the process as a daemon: a daemon blocked on a condition
// does not count toward deadlock detection, so service loops (e.g. queue
// consumers) may outlive the simulation without erroring Run.
func (p *Proc) Daemonize() { p.daemon = true }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// worker is a coroutine (iter.Pull) that runs process bodies one after
// another: run the body of w.p, mark itself free (w.p = nil), yield, repeat.
// A process parks by yielding on its worker and is resumed by next, so a
// process switch is runtime.coroswitch — a direct goroutine-to-goroutine
// switch that never enters the Go scheduler — and a transient process costs
// no goroutine creation, exit or stack regrowth once a worker is warm.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process whose body is running or parked here; nil: free
}

func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		fn := p.fn
		p.fn = nil
		fn(p)
		p.w, w.p = nil, nil
		if !yield(struct{}{}) {
			return // stopped: the free list was full
		}
	}
}

// workers is the free list, shared by every Env of the program: gvmbench and
// the tests build thousands of short-lived Envs, and a parked coroutine is
// never collected, so a list per Env would leak its workers with every Env
// dropped. A worker whose body panicked or called Goexit is finished and
// never comes back here.
var workers struct {
	sync.Mutex
	free []*worker
}

// maxFreeWorkers bounds what an idle program retains after a burst of
// concurrent processes: a stack each. Beyond it a freed worker is stopped.
const maxFreeWorkers = 128

func acquireWorker() *worker {
	workers.Lock()
	if n := len(workers.free); n > 0 {
		w := workers.free[n-1]
		workers.free[n-1] = nil
		workers.free = workers.free[:n-1]
		workers.Unlock()
		return w
	}
	workers.Unlock()
	w := &worker{}
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

func releaseWorker(w *worker) {
	workers.Lock()
	pooled := len(workers.free) < maxFreeWorkers
	if pooled {
		workers.free = append(workers.free, w)
	}
	workers.Unlock()
	if !pooled {
		w.stop()
	}
}

// Go spawns a new process running fn, starting at the current instant
// (after already-scheduled events at this instant). The returned *Proc is
// valid until fn returns: a finished process is reused by a later Go of the
// same Env, so a transient process costs no allocation once one has run,
// and an Env keeps as many as it ever ran at once.
func (e *Env) Go(fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
	} else {
		p = &Proc{env: e}
		p.resume = func() { e.handoff(p) }
	}
	p.fn = fn
	e.schedule(e.now, p.resume)
	return p
}

// handoff transfers control to p and holds the scheduler until p either
// parks (blocks on virtual time / an event) or exits. A worker is released
// here, after next has come back, never by the worker itself: once it is on
// the free list another Env's goroutine may resume it, which must not happen
// while it is still running towards its yield. A finished p goes onto the
// Env's own free list here too, for Go to reuse.
func (e *Env) handoff(p *Proc) {
	w := p.w
	if w == nil {
		w = acquireWorker()
		w.p, p.w = p, w
	}
	e.switches++
	e.cur = p
	// A panic or runtime.Goexit in the body surfaces from next, on the
	// goroutine that called Run; RunUntil's deferred reset clears cur.
	w.next()
	e.cur = nil
	if w.p == nil {
		releaseWorker(w)
		p.daemon = false
		e.procFree = append(e.procFree, p)
	}
}

// park suspends the calling process, returning control to the scheduler,
// until something resumes it via a calendar entry calling handoff.
func (p *Proc) park() { p.w.yield(struct{}{}) }

// Sleep suspends the process for virtual duration d (non-negative).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.WaitUntil(p.env.now.Add(d))
}

// WaitUntil suspends the process until virtual instant t.
//
// When nothing can run before t — the same-instant FIFO is drained, no
// calendar entry is due at or before t, and t is within the running horizon —
// the scheduler's next act after parking p would be "advance the clock to t,
// resume p", so p advances the clock itself and keeps control. The test
// against the calendar head is strict: an entry at exactly t was scheduled
// earlier and still runs first. The sequence counter moves as if the resume
// had been scheduled, so later ties break exactly as they did.
func (p *Proc) WaitUntil(t Time) {
	e := p.env
	if t < e.now {
		t = e.now // an instant in the past is a yield
	}
	if e.nowHead == len(e.nowQ) && (len(e.cal) == 0 || e.cal[0].at > t) && t <= e.horizon {
		if t > e.now {
			e.seq++
			e.now = t
		}
		return
	}
	e.schedule(t, p.resume)
	p.park()
}

// block marks the process as blocked on a non-time condition and parks.
// resume must eventually be arranged by the condition's owner.
func (p *Proc) block() {
	if p.daemon {
		p.park()
		return
	}
	p.env.blocked++
	p.park()
	p.env.blocked--
}

// unblock schedules p to resume at the current instant.
func (e *Env) unblock(p *Proc) {
	e.schedule(e.now, p.resume)
}
