// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine drives a virtual clock. Work is expressed either as timer
// callbacks (At/After) or as processes: ordinary functions that may block on
// virtual time (Sleep), on events (Wait), on resources, stores and barriers.
// A process is a coroutine, not a goroutine of its own: its body runs on a
// pooled worker (an iter.Pull coroutine, proc.go), parking is the worker's
// yield and resuming is its next, so a process switch is a direct
// goroutine-to-goroutine switch that never enters the Go scheduler. At any
// instant exactly one of them — the scheduler or a single resumed process —
// executes, so simulations are fully deterministic and need no locking of
// simulation state. A sleep nothing can interleave with does not switch at
// all (WaitUntil).
//
// Ties in the event calendar are broken by schedule order (FIFO), which
// keeps multi-process interleavings stable across runs.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is re-exported from package time for convenience; virtual
// durations use the same unit (nanoseconds) as wall-clock durations.
type Duration = time.Duration

// Common durations, re-exported so callers need not import time.
const (
	Nanosecond  Duration = time.Nanosecond
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// item is a calendar entry: at time at (seq breaking ties), run fn. Items
// are stored by value in the heap slice, so scheduling a future event costs
// no per-event allocation once the slice's capacity has warmed up.
type item struct {
	at  Time
	seq uint64
	fn  func()
}

func (it item) less(o item) bool {
	if it.at != o.at {
		return it.at < o.at
	}
	return it.seq < o.seq
}

// Env is a simulation environment: a virtual clock plus an event calendar.
// The zero value is not usable; construct with NewEnv.
//
// The calendar is split in two: a value-based binary heap for future
// instants, and a flat FIFO (nowQ) for events scheduled at the current
// instant. Same-instant scheduling — process resume, unblock, Go, event
// fan-out — dominates the engine's hot path, and the FIFO turns each such
// event into one slice append against pooled capacity instead of a heap
// push. Ordering is preserved: heap entries due at the current instant were
// scheduled before the clock reached it, so they always precede nowQ
// entries, and nowQ itself is FIFO by construction.
type Env struct {
	now      Time
	cal      []item // future events, min-heap on (at, seq)
	nowQ     []func()
	nowHead  int
	seq      uint64
	horizon  Time   // the running RunUntil's horizon: the clock never passes it
	cur      *Proc  // the process holding control right now (nil: the scheduler)
	blocked  int    // processes alive but waiting on something other than time
	switches uint64 // hand-offs made
	running  bool
	procFree []*Proc // finished processes, reused by Go
}

// pushCal inserts a future entry into the heap (sift-up).
func (e *Env) pushCal(it item) {
	e.cal = append(e.cal, it)
	i := len(e.cal) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.cal[i].less(e.cal[parent]) {
			break
		}
		e.cal[i], e.cal[parent] = e.cal[parent], e.cal[i]
		i = parent
	}
}

// popCal removes the minimum heap entry (sift-down), clearing the vacated
// slot so the closure can be collected.
func (e *Env) popCal() {
	n := len(e.cal) - 1
	e.cal[0] = e.cal[n]
	e.cal[n] = item{}
	e.cal = e.cal[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.cal[r].less(e.cal[l]) {
			m = r
		}
		if !e.cal[m].less(e.cal[i]) {
			break
		}
		e.cal[i], e.cal[m] = e.cal[m], e.cal[i]
		i = m
	}
}

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Current returns the process that holds control right now, or nil when the
// caller runs on the scheduler (a timer callback, or code outside Run).
// Synchronous callbacks reached from several processes use it to charge
// virtual time on whichever one is actually running, which a variable saved
// before a Sleep cannot tell them: other processes run during the sleep.
func (e *Env) Current() *Proc { return e.cur }

// Scheduled returns how many future-instant entries the calendar has taken
// since the environment was made — the sequence counter that breaks ties
// between entries due at one instant. Same-instant work takes the FIFO and
// is not counted. Tests use it to bound how many events an operation costs.
func (e *Env) Scheduled() uint64 { return e.seq }

// Switches returns how many times the scheduler has handed control to a
// process (each hand-off is a switch into the process and one back) since the
// environment was made. A sleep that advances the clock in place (WaitUntil)
// is not one. Tests use it to pin how many process switches an operation costs.
func (e *Env) Switches() uint64 { return e.switches }

// schedule enters fn into the calendar at instant at. Instants at or before
// the current time take the same-instant FIFO fast path.
func (e *Env) schedule(at Time, fn func()) {
	if at <= e.now {
		e.nowQ = append(e.nowQ, fn)
		return
	}
	e.seq++
	e.pushCal(item{at: at, seq: e.seq, fn: fn})
}

// At schedules fn to run at the given virtual instant (or now, if the
// instant is in the past). fn runs on the scheduler goroutine.
func (e *Env) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run d from now.
func (e *Env) After(d Duration, fn func()) { e.schedule(e.now.Add(d), fn) }

// Run executes calendar entries in time order until the calendar is empty.
// It returns an error if processes remain blocked on conditions that can
// never fire (deadlock).
func (e *Env) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes calendar entries in time order until the calendar is
// empty or the next entry is later than horizon. The clock never advances
// past horizon.
func (e *Env) RunUntil(horizon Time) error {
	if e.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	e.running = true
	e.horizon = horizon
	// cur is reset here too: a process body that panics (or calls Goexit)
	// unwinds through handoff on this goroutine.
	defer func() { e.running, e.cur = false, nil }()
	for {
		// Heap entries due now were scheduled before the clock reached this
		// instant, so they precede everything queued in nowQ.
		for len(e.cal) > 0 && e.cal[0].at <= e.now {
			fn := e.cal[0].fn
			e.popCal()
			fn()
		}
		// Drain the same-instant FIFO with a cursor: callbacks may append
		// more same-instant work, which runs in this same pass in FIFO
		// order. Slots are cleared as they run so closures don't linger.
		for e.nowHead < len(e.nowQ) {
			fn := e.nowQ[e.nowHead]
			e.nowQ[e.nowHead] = nil
			e.nowHead++
			fn()
		}
		e.nowQ = e.nowQ[:0]
		e.nowHead = 0
		if len(e.cal) == 0 {
			break
		}
		if next := e.cal[0].at; next > horizon {
			e.now = horizon
			return nil
		} else {
			e.now = next
		}
	}
	if e.blocked > 0 {
		return fmt.Errorf("sim: deadlock: %d process(es) blocked with empty calendar at %v", e.blocked, e.now)
	}
	return nil
}

// Event is a one-shot condition processes can wait on. Once fired it stays
// fired; waiters arriving later proceed immediately. An optional value can
// be attached at fire time.
type Event struct {
	env     *Env
	fired   bool
	val     any
	waiters []*Proc
	// cbs are callbacks run at fire time, after the waiters wake. Only
	// sim's own tests register any; everything else waits.
	cbs []func(any)
}

// NewEvent returns a fresh unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fire fires the event with value v, waking all waiters at the current
// instant in FIFO order. Firing an already-fired event is a no-op.
func (ev *Event) Fire(v any) {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.val = v
	// Nothing re-registers on a fired event (Wait and a callback both
	// take the already-fired fast path), so the slices can be truncated in
	// place: the backing arrays survive for the next use after Reset,
	// keeping repeated block/wake cycles allocation-free.
	for i, p := range ev.waiters {
		ev.env.unblock(p)
		ev.waiters[i] = nil
	}
	ev.waiters = ev.waiters[:0]
	for i, cb := range ev.cbs {
		if cb != nil { // detached by its registrant
			cb(v)
		}
		ev.cbs[i] = nil
	}
	ev.cbs = ev.cbs[:0]
}

// Reset returns a fired event to the unfired state so its owner can
// arm it again, avoiding one Event allocation per blocking operation.
// Only the sole consumer of the previous firing may call it (e.g. a
// Store getter recycling its waiter): anyone still holding the event
// would otherwise see it spuriously unfired.
func (ev *Event) Reset() {
	ev.fired = false
	ev.val = nil
}

// Wait suspends the process until the event fires and returns the event's
// value. Returns immediately if already fired.
func (p *Proc) Wait(ev *Event) any {
	if ev.fired {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	p.block()
	return ev.val
}
