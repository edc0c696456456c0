package sim

import "testing"

// TestCalendarFIFOAtSameInstant verifies the documented tie-break: events
// scheduled for the same instant run in schedule order, whether they were
// scheduled ahead of time (heap) or at the instant itself (nowQ).
func TestCalendarFIFOAtSameInstant(t *testing.T) {
	e := NewEnv()
	var got []int
	rec := func(i int) func() { return func() { got = append(got, i) } }
	// Scheduled before the clock reaches t=10: these are heap entries and
	// must run before anything queued at t=10 itself.
	e.At(10, rec(0))
	e.At(10, func() {
		got = append(got, 1)
		// Same-instant scheduling from within a callback: FIFO after all
		// pending heap entries at this instant.
		e.At(10, rec(3))
		e.At(5, rec(4)) // past instant clamps to now, after 3
	})
	e.At(10, rec(2))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestCalendarNestedSameInstant(t *testing.T) {
	e := NewEnv()
	var got []int
	var chain func(i int) func()
	chain = func(i int) func() {
		return func() {
			got = append(got, i)
			if i < 5 {
				e.After(0, chain(i+1))
			}
		}
	}
	e.After(0, chain(0))
	e.After(0, func() { got = append(got, 100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// chain(0) then 100 (FIFO), then the rescheduled chain(1..5).
	want := []int{0, 100, 1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestCalendarHorizonKeepsFutureEvents(t *testing.T) {
	e := NewEnv()
	ran := 0
	e.At(5, func() { ran++ })
	e.At(20, func() { ran++ })
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ran != 1 || e.Now() != 10 {
		t.Fatalf("ran=%d now=%v, want 1 event and clock parked at horizon 10", ran, e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || e.Now() != 20 {
		t.Fatalf("ran=%d now=%v after resume, want 2 events at t=20", ran, e.Now())
	}
}

func TestCalendarInterleavesHeapAndNowQ(t *testing.T) {
	e := NewEnv()
	var got []string
	e.At(1, func() { got = append(got, "a@1") })
	e.At(2, func() {
		got = append(got, "b@2")
		e.At(2, func() { got = append(got, "d@2-now") })
	})
	e.At(2, func() { got = append(got, "c@2") })
	e.At(3, func() { got = append(got, "e@3") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@2", "c@2", "d@2-now", "e@3"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// TestWaitAnyDetachesLosers is the regression test for the WaitAny callback
// leak: closures registered on losing events must not accumulate across
// repeated WaitAny calls against a long-lived event.
func TestWaitAnyDetachesLosers(t *testing.T) {
	e := NewEnv()
	longLived := e.NewEvent()
	const rounds = 50
	e.Go(func(p *Proc) {
		for r := 0; r < rounds; r++ {
			winner := e.NewEvent()
			e.After(1, func() { winner.Fire(r) })
			if idx := waitAny(p, winner, longLived); idx != 0 {
				t.Errorf("round %d: WaitAny returned %d, want 0", r, idx)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	live := 0
	for _, cb := range longLived.cbs {
		if cb != nil {
			live++
		}
	}
	if live != 0 {
		t.Fatalf("long-lived event retains %d live callbacks after %d WaitAny rounds, want 0", live, rounds)
	}
}

func TestWaitAnyStillFiresAfterDetach(t *testing.T) {
	e := NewEnv()
	a, b := e.NewEvent(), e.NewEvent()
	var first int
	e.Go(func(p *Proc) {
		e.After(1, func() { a.Fire("a") })
		first = waitAny(p, a, b)
		// b lost and was detached; firing it later must still wake a
		// direct waiter and run remaining callbacks.
		done := false
		b.OnFire(func(any) { done = true })
		e.After(1, func() { b.Fire("b") })
		p.Wait(b)
		if !done {
			t.Error("callback registered after detach did not run")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("WaitAny returned %d, want 0", first)
	}
}

// BenchmarkCalendarSchedDrain measures scheduling and draining a batch of
// future events — the value-heap path. Seed (pointer heap via
// container/heap): 9639 ns/op, 2744 B/op, 73 allocs/op per 64 events.
func BenchmarkCalendarSchedDrain(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < 64; j++ {
			e.At(base.Add(Duration(j+1)), fn)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalendarSameInstant measures the same-instant fast path — the
// dominant pattern for process resume/unblock fan-out. Seed: 5695 ns/op,
// 1808 B/op, 71 allocs/op per 64 events.
func BenchmarkCalendarSameInstant(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			e.After(0, fn)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
