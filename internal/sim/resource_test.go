package sim

import "testing"

func TestResourceBasicAcquireRelease(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(2)
	var doneAt [3]Time
	for i := 0; i < 3; i++ {
		i := i
		e.Go(func(p *Proc) {
			r.Acquire(p, 1)
			p.Sleep(10 * Millisecond)
			r.Release(1)
			doneAt[i] = p.Now()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two run concurrently, third waits for a slot.
	if doneAt[0] != Time(10*Millisecond) || doneAt[1] != Time(10*Millisecond) {
		t.Fatalf("first two finished at %v, %v; want 10ms", doneAt[0], doneAt[1])
	}
	if doneAt[2] != Time(20*Millisecond) {
		t.Fatalf("third finished at %v, want 20ms", doneAt[2])
	}
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d after all released", r.InUse())
	}
}

func TestResourceFIFONoBarging(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(4)
	var order []string
	e.Go(func(p *Proc) {
		r.Acquire(p, 3) // holds 3 of 4
		p.Sleep(10 * Millisecond)
		r.Release(3)
	})
	e.Go(func(p *Proc) {
		p.Sleep(Millisecond)
		r.Acquire(p, 4) // queued: needs all 4
		order = append(order, "big")
		r.Release(4)
	})
	e.Go(func(p *Proc) {
		p.Sleep(2 * Millisecond)
		r.Acquire(p, 1) // one unit IS free, but big is ahead: must wait
		order = append(order, "small")
		r.Release(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Fatalf("order = %v, want [big small] (FIFO)", order)
	}
}

func TestResourcePanicsOnBadArgs(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(2)
	mustPanic(t, func() { r.Release(1) })      // nothing held
	mustPanic(t, func() { r.Acquire(nil, 3) }) // over capacity
	mustPanic(t, func() { r.Acquire(nil, 0) }) // zero
	mustPanic(t, func() { e.NewResource(0) })  // bad capacity
	mustPanic(t, func() { NewEnv().NewResource(-1) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
