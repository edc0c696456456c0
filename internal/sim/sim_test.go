package sim

import (
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestAfterOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.After(30*Millisecond, func() { order = append(order, 3) })
	e.After(10*Millisecond, func() { order = append(order, 1) })
	e.After(20*Millisecond, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != Time(30*Millisecond) {
		t.Fatalf("final time = %v, want 30ms", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*Millisecond), func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break)", i, v, i)
		}
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEnv()
	var woke Time
	e.Go(func(p *Proc) {
		p.Sleep(42 * Millisecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(42*Millisecond) {
		t.Fatalf("woke at %v, want 42ms", woke)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEnv()
	e.Go(func(p *Proc) { p.Sleep(-5 * Millisecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced to %v on negative sleep", e.Now())
	}
}

func TestTwoProcessesInterleave(t *testing.T) {
	e := NewEnv()
	var trace []string
	e.Go(func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * Millisecond)
		trace = append(trace, "a10")
		p.Sleep(20 * Millisecond)
		trace = append(trace, "a30")
	})
	e.Go(func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * Millisecond)
		trace = append(trace, "b15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestEventFireWakesWaiters(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	var got []any
	for i := 0; i < 3; i++ {
		e.Go(func(p *Proc) { got = append(got, p.Wait(ev)) })
	}
	e.After(5*Millisecond, func() { ev.Fire("hello") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d wakeups, want 3", len(got))
	}
	for _, v := range got {
		if v != "hello" {
			t.Fatalf("value = %v, want hello", v)
		}
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire(7)
	var at Time = -1
	e.Go(func(p *Proc) {
		if v := p.Wait(ev); v != 7 {
			t.Errorf("value = %v, want 7", v)
		}
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Fatalf("waiter resumed at %v, want 0", at)
	}
}

func TestEventDoubleFireIsNoop(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	ev.Fire(1)
	ev.Fire(2)
	if ev.val != 1 {
		t.Fatalf("value = %v, want first fire value 1", ev.val)
	}
	ev.Reset()
	if ev.fired || ev.val != nil {
		t.Fatalf("fired = %v, value = %v after Reset, want an unfired event holding nothing", ev.fired, ev.val)
	}
}

// OnFire registers a callback run (on the scheduler goroutine) when the
// event fires; if already fired the callback runs immediately. Only tests
// register callbacks: production code waits on an event with Proc.Wait.
func (ev *Event) OnFire(cb func(v any)) {
	if ev.fired {
		cb(ev.val)
		return
	}
	ev.cbs = append(ev.cbs, cb)
}

func TestOnFireCallback(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	calls := 0
	ev.OnFire(func(v any) {
		calls++
		if v != "x" {
			t.Errorf("cb value = %v", v)
		}
	})
	e.After(Millisecond, func() { ev.Fire("x") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Registering after fire runs immediately.
	ev.OnFire(func(v any) { calls++ })
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestWaitAnyReturnsEarliest(t *testing.T) {
	e := NewEnv()
	a, b, c := e.NewEvent(), e.NewEvent(), e.NewEvent()
	var idx int = -1
	e.Go(func(p *Proc) { idx = waitAny(p, a, b, c) })
	e.After(10*Millisecond, func() { b.Fire(nil) })
	e.After(20*Millisecond, func() { a.Fire(nil) })
	e.After(30*Millisecond, func() { c.Fire(nil) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("WaitAny = %d, want 1", idx)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Go(func(p *Proc) { p.Wait(ev) })
	if err := e.Run(); err == nil {
		t.Fatal("Run returned nil, want deadlock error")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEnv()
	fired := false
	e.After(100*Millisecond, func() { fired = true })
	if err := e.RunUntil(Time(50 * Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event past horizon fired")
	}
	if e.Now() != Time(50*Millisecond) {
		t.Fatalf("Now = %v, want horizon 50ms", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event never fired after resuming")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEnv()
	var childAt Time = -1
	e.Go(func(p *Proc) {
		p.Sleep(5 * Millisecond)
		p.env.Go(func(c *Proc) {
			c.Sleep(5 * Millisecond)
			childAt = c.Now()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != Time(10*Millisecond) {
		t.Fatalf("child finished at %v, want 10ms", childAt)
	}
}

func TestYieldRunsAfterPendingEvents(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Go(func(p *Proc) {
		p.env.At(0, func() { order = append(order, "pending") })
		p.WaitUntil(p.Now())
		order = append(order, "yielded")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "pending" || order[1] != "yielded" {
		t.Fatalf("order = %v", order)
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * Microsecond)
	if tm.Milliseconds() != 1.5 {
		t.Fatalf("Milliseconds = %v, want 1.5", tm.Milliseconds())
	}
	if d := tm.Sub(Time(500 * Microsecond)); d != Millisecond {
		t.Fatalf("Sub = %v, want 1ms", d)
	}
}

func TestAtInPastClampsToNow(t *testing.T) {
	e := NewEnv()
	var ranAt Time = -1
	e.After(10*Millisecond, func() {
		e.At(Time(2*Millisecond), func() { ranAt = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ranAt != Time(10*Millisecond) {
		t.Fatalf("past event ran at %v, want clamped to 10ms", ranAt)
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var trace []string
		for i := 0; i < 20; i++ {
			name := string(rune('A' + i))
			d := Duration(i%7) * Millisecond
			e.Go(func(p *Proc) {
				p.Sleep(d)
				trace = append(trace, name)
				p.Sleep(d)
				trace = append(trace, name)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 40 {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDaemonBlockedIsNotDeadlock(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	e.Go(func(p *Proc) {
		p.Daemonize()
		p.Wait(ev) // never fires
	})
	if err := e.Run(); err != nil {
		t.Fatalf("blocked daemon reported as deadlock: %v", err)
	}
}

// TestCurrentTracksTheRunningProcess interleaves two processes across
// Sleep, Wait and Go: Current is whichever one holds control at that
// moment, and nil on the scheduler (timer callbacks, outside Run).
func TestCurrentTracksTheRunningProcess(t *testing.T) {
	e := NewEnv()
	if e.Current() != nil {
		t.Fatal("Current outside Run is not nil")
	}
	ev := e.NewEvent()
	check := func(p *Proc, where string) {
		t.Helper()
		if got := e.Current(); got != p {
			t.Errorf("%s: Current = %p, want %p", where, got, p)
		}
	}
	var child *Proc
	a := e.Go(func(p *Proc) {
		check(p, "a start")
		p.Sleep(2 * Millisecond) // b runs meanwhile
		check(p, "a after Sleep")
		child = e.Go(func(c *Proc) { check(c, "child") })
		check(p, "a after Go") // spawning does not hand control over
		p.Wait(ev)
		check(p, "a after Wait")
	})
	e.Go(func(p *Proc) {
		check(p, "b start")
		p.Sleep(Millisecond)
		check(p, "b after Sleep") // a is parked in its own Sleep
		p.Sleep(4 * Millisecond)
		check(p, "b before Fire")
		ev.Fire(nil)
		check(p, "b after Fire") // a resumes only once b parks or exits
	})
	e.After(3*Millisecond, func() {
		if got := e.Current(); got != nil {
			t.Errorf("timer callback: Current = %p, want nil", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a == nil || child == nil {
		t.Fatal("processes never ran")
	}
	if e.Current() != nil {
		t.Fatal("Current after Run is not nil")
	}
}
