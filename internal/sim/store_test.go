package sim

import "testing"

func TestStoreFIFO(t *testing.T) {
	e := NewEnv()
	s := NewStore[int](e, 0)
	var got []int
	e.Go(func(p *Proc) {
		for i := 0; i < 5; i++ {
			s.Put(p, i)
			p.Sleep(Millisecond)
		}
	})
	e.Go(func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, s.Get(p))
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got = %v, want 0..4 in order", got)
		}
	}
}

func TestStoreGetBlocksUntilPut(t *testing.T) {
	e := NewEnv()
	s := NewStore[string](e, 0)
	var gotAt Time
	e.Go(func(p *Proc) {
		if v := s.Get(p); v != "x" {
			t.Errorf("Get = %q", v)
		}
		gotAt = p.Now()
	})
	e.Go(func(p *Proc) {
		p.Sleep(7 * Millisecond)
		s.Put(p, "x")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotAt != Time(7*Millisecond) {
		t.Fatalf("consumer resumed at %v, want 7ms", gotAt)
	}
}

func TestStorePutBlocksWhenFull(t *testing.T) {
	e := NewEnv()
	s := NewStore[int](e, 2)
	var putDone Time
	e.Go(func(p *Proc) {
		s.Put(p, 1)
		s.Put(p, 2)
		s.Put(p, 3) // blocks: capacity 2
		putDone = p.Now()
	})
	e.Go(func(p *Proc) {
		p.Sleep(10 * Millisecond)
		_ = s.Get(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone != Time(10*Millisecond) {
		t.Fatalf("third Put completed at %v, want 10ms", putDone)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestStoreTryOps(t *testing.T) {
	e := NewEnv()
	s := NewStore[int](e, 1)
	if !s.TryPut(9) {
		t.Fatal("TryPut on empty store failed")
	}
	if s.TryPut(10) {
		t.Fatal("TryPut on full store succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after one TryPut into a capacity-1 store", s.Len())
	}
}

func TestStoreHandoffToWaitingGetter(t *testing.T) {
	// A Put while a getter is blocked must bypass the buffer entirely,
	// even if the buffer is full of nothing (cap 1 with pending getter).
	e := NewEnv()
	s := NewStore[int](e, 1)
	var got int
	e.Go(func(p *Proc) { got = s.Get(p) })
	e.Go(func(p *Proc) {
		p.Sleep(Millisecond)
		s.Put(p, 42)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got = %d, want 42", got)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after handoff, want 0", s.Len())
	}
}

func TestStoreNegativeCapacityPanics(t *testing.T) {
	e := NewEnv()
	mustPanic(t, func() { NewStore[int](e, -1) })
}
