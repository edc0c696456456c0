package sim

import (
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"
)

// The schedule — which process or timer runs at which virtual instant, in
// which order — is the engine's contract: every figure gvmbench prints is a
// function of it. This test pins it independently of how a process switch is
// implemented: a seeded generator builds a small program of processes
// (Sleep, WaitUntil, Wait, Fire, waitAny, After timers, Resource, Store, nested
// Go; a third of the seeds run the calendar in RunUntil slices), every step
// logs (virtual time, current process, step), and the log's hash must equal
// the table in schedule_table_test.go. The table was produced by running this
// file on the engine of commit 132900c (goroutine processes handing off over
// two channels): `go test -run TestScheduleMatchesTable -schedule.print`.

var printSchedule = flag.Bool("schedule.print", false,
	"print the schedule hash table instead of checking it (run on the engine that defines the schedule)")

const scheduleSeeds = 256

type schedRun struct {
	env *Env
	h   hash.Hash64
	evs []*Event
	res *Resource
	st  *Store[int]
	ids int
	// names holds each live process's name, p1, p2, … in spawn order: a
	// finished Proc is reused by a later Go, which names it anew.
	names map[*Proc]string
}

// log records one step under the name of the process the engine says holds
// control ("-" on the scheduler), so a wrong Env.Current shows up as well.
func (s *schedRun) log(step int, what string) {
	who := "-"
	if p := s.env.Current(); p != nil {
		who = s.names[p]
	}
	fmt.Fprintf(s.h, "%d %s %d %s\n", s.env.Now(), who, step, what)
}

func (s *schedRun) spawn(seed uint64, depth int) {
	s.goNamed(s.body(seed, depth))
}

// goNamed spawns fn as the next process in spawn order.
func (s *schedRun) goNamed(fn func(p *Proc)) {
	s.ids++
	s.names[s.env.Go(fn)] = fmt.Sprintf("p%d", s.ids)
}

// body is one process's program, drawn from its own generator so that what a
// process does never depends on when it ran — only the log's order does.
func (s *schedRun) body(seed uint64, depth int) func(p *Proc) {
	return func(p *Proc) {
		r := NewRand(seed)
		steps := 3 + r.Intn(8)
		for i := 0; i < steps; i++ {
			switch op := r.Intn(12); op {
			case 0, 1, 2:
				s.log(i, "sleep")
				p.Sleep(Duration(r.Intn(5)))
			case 3:
				s.log(i, "yield")
				p.WaitUntil(p.Now())
			case 4:
				s.log(i, "until")
				p.WaitUntil(Time(r.Intn(40))) // often in the past: a yield
			case 5:
				k := r.Intn(len(s.evs))
				s.log(i, "wait")
				p.Wait(s.evs[k])
			case 6:
				k := r.Intn(len(s.evs))
				s.log(i, "fire")
				s.evs[k].Fire(k)
			case 7:
				a, b := r.Intn(len(s.evs)), r.Intn(len(s.evs))
				s.log(i, "any")
				s.log(i, fmt.Sprint("any=", waitAny(p, s.evs[a], s.evs[b])))
			case 8:
				d, k, id := Duration(r.Intn(6)), r.Intn(2*len(s.evs)), i
				s.log(i, "after")
				s.env.After(d, func() {
					s.log(id, "timer")
					if k < len(s.evs) {
						s.evs[k].Fire(k)
					}
				})
			case 9:
				n := 1 + r.Intn(s.res.Cap())
				s.log(i, "acquire")
				s.res.Acquire(p, n)
				s.log(i, "hold")
				p.Sleep(Duration(r.Intn(4)))
				s.res.Release(n)
			case 10:
				// One put per get, so every Get is served; a getter that
				// dawdles lets the capacity-1 store fill and block putters.
				d, late, v := Duration(r.Intn(4)), Duration(r.Intn(6)-2), int(r.Intn(100))
				s.goNamed(func(c *Proc) {
					c.Sleep(d)
					s.log(v, "put")
					s.st.Put(c, v)
					s.log(v, "put-done")
				})
				if late > 0 {
					p.Sleep(late)
				}
				s.log(i, "get")
				s.log(i, fmt.Sprint("got=", s.st.Get(p)))
			case 11:
				s.log(i, "go")
				if depth < 2 {
					s.spawn(r.Uint64(), depth+1)
				}
			}
			s.log(i, "done")
		}
		s.log(steps, "exit")
	}
}

// waitAny suspends the process until at least one of the events has fired,
// and returns the index of the earliest-fired event among them. Once the
// winner fires, the callbacks registered on the losing events are detached,
// so long-lived events do not accumulate dead closures from repeated calls.
// Its schedule is part of the pinned table.
func waitAny(p *Proc, evs ...*Event) int {
	for i, ev := range evs {
		if ev.fired {
			return i
		}
	}
	done := p.env.NewEvent()
	ids := make([]int, len(evs))
	for i, ev := range evs {
		i := i
		ids[i] = len(ev.cbs)
		ev.cbs = append(ev.cbs, func(any) { done.Fire(i) })
	}
	idx := p.Wait(done).(int)
	for i, ev := range evs {
		if i != idx && !ev.fired && ids[i] < len(ev.cbs) {
			ev.cbs[ids[i]] = nil
		}
	}
	return idx
}

// scheduleHash runs the program of one seed to completion and returns the
// hash of its log.
func scheduleHash(t *testing.T, seed uint64) uint64 {
	r := NewRand(seed)
	s := &schedRun{env: NewEnv(), h: fnv.New64a(), names: map[*Proc]string{}}
	s.res = s.env.NewResource(2)
	s.st = NewStore[int](s.env, 1)
	for k := 0; k < 5; k++ {
		ev, k := s.env.NewEvent(), k
		s.evs = append(s.evs, ev)
		// Every event fires by itself at the latest, so no Wait deadlocks.
		s.env.After(Duration(r.Intn(40)), func() {
			s.log(k, "backstop")
			ev.Fire(k)
		})
	}
	for n := 2 + r.Intn(4); n > 0; n-- {
		s.spawn(r.Uint64(), 0)
	}
	if seed%3 == 0 {
		step := Time(1 + r.Intn(9))
		for k := Time(1); k <= 8; k++ {
			if err := s.env.RunUntil(k * step); err != nil {
				t.Fatalf("seed %d: RunUntil(%v): %v", seed, k*step, err)
			}
			s.log(int(k), "slice")
		}
	}
	if err := s.env.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	s.log(int(s.env.Scheduled()), "end")
	return s.h.Sum64()
}

func TestScheduleMatchesTable(t *testing.T) {
	if *printSchedule {
		fmt.Println("var scheduleTable = [scheduleSeeds]uint64{")
		for seed := uint64(0); seed < scheduleSeeds; seed++ {
			fmt.Printf("\t%#016x,\n", scheduleHash(t, seed))
		}
		fmt.Println("}")
		return
	}
	for seed := uint64(0); seed < scheduleSeeds; seed++ {
		if got := scheduleHash(t, seed); got != scheduleTable[seed] {
			t.Errorf("seed %d: schedule hash %#016x, the parent engine's is %#016x", seed, got, scheduleTable[seed])
		}
	}
}
