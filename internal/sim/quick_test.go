package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

// Property: events scheduled at arbitrary instants always execute in
// nondecreasing time order, and equal instants in schedule order.
func TestQuickCalendarOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEnv()
		type obs struct {
			at  Time
			seq int
		}
		var ran []obs
		for i, off := range offsets {
			i := i
			at := Time(Duration(off) * Microsecond)
			e.At(at, func() { ran = append(ran, obs{e.Now(), i}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(ran) != len(offsets) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i].at < ran[i-1].at {
				return false
			}
			if ran[i].at == ran[i-1].at && ran[i].seq < ran[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a process sleeping a sequence of durations wakes at the exact
// prefix sums, regardless of other processes in the system.
func TestQuickSleepPrefixSums(t *testing.T) {
	f := func(ds []uint16, noise []uint16) bool {
		e := NewEnv()
		var wakes []Time
		e.Go(func(p *Proc) {
			for _, d := range ds {
				p.Sleep(Duration(d) * Microsecond)
				wakes = append(wakes, p.Now())
			}
		})
		for _, n := range noise {
			d := Duration(n) * Microsecond
			e.Go(func(p *Proc) { p.Sleep(d) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		var sum Time
		for i, d := range ds {
			sum = sum.Add(Duration(d) * Microsecond)
			if wakes[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a capacity-1 resource held for a fixed service time by
// each of n processes, completions are spaced exactly one service time
// apart (perfect serialization), in FIFO arrival order.
func TestQuickResourceSerializes(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n%16) + 1
		const service = 3 * Millisecond
		e := NewEnv()
		r := e.NewResource(1)
		var doneAt []Time
		for i := 0; i < count; i++ {
			e.Go(func(p *Proc) {
				r.Acquire(p, 1)
				p.Sleep(service)
				r.Release(1)
				doneAt = append(doneAt, p.Now())
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(doneAt) != count {
			return false
		}
		for i, tm := range doneAt {
			if tm != Time(Duration(i+1)*service) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a store preserves exact FIFO order for any payload sequence.
func TestQuickStoreFIFO(t *testing.T) {
	f := func(vals []int64, capRaw uint8) bool {
		capacity := int(capRaw % 8) // 0..7, 0 = unbounded
		e := NewEnv()
		s := NewStore[int64](e, capacity)
		var got []int64
		e.Go(func(p *Proc) {
			for _, v := range vals {
				s.Put(p, v)
			}
		})
		e.Go(func(p *Proc) {
			for range vals {
				got = append(got, s.Get(p))
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the deterministic Rand produces identical streams for
// identical seeds and (overwhelmingly likely) different streams for
// different seeds; Float64 stays in [0,1).
func TestQuickRandDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRand(seed), NewRand(seed)
		for i := 0; i < 50; i++ {
			x, y := a.Float64(), b.Float64()
			if x != y || x < 0 || x >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Sanity: heap interface behaves like a sorted multiset of instants.
func TestQuickCalendarMatchesSort(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEnv()
		var ran []Time
		for _, off := range offsets {
			at := Time(Duration(off) * Microsecond)
			e.At(at, func() { ran = append(ran, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := make([]Time, len(offsets))
		for i, off := range offsets {
			want[i] = Time(Duration(off) * Microsecond)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if ran[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
