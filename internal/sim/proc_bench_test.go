package sim

import "testing"

// BenchmarkProcSwitch is the cost of one hand-off: two processes alternate
// through WaitUntil(now), so every such yield finds the other one queued and
// must switch.
// switches/op stays 1; ns/op is the scheduler-to-process-and-back round trip.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEnv()
	for i := 0; i < 2; i++ {
		e.Go(func(p *Proc) {
			for n := 0; n < b.N/2; n++ {
				p.WaitUntil(p.Now())
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := e.Switches()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.Switches()-before)/float64(b.N), "switches/op")
}

// BenchmarkProcSpawn is a transient process end to end — Go, first resume,
// empty body, exit — the shape of the daemon's per-frame and per-restore
// processes. Go reuses the finished Proc, so it allocates nothing.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEnv()
	body := func(*Proc) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Go(body)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcSleepUncontended is a lone process charging virtual time:
// nothing can run before it wakes, so the sleep is a clock advance.
func BenchmarkProcSleepUncontended(b *testing.B) {
	e := NewEnv()
	e.Go(func(p *Proc) {
		for n := 0; n < b.N; n++ {
			p.Sleep(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	before := e.Switches()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(e.Switches()-before)/float64(b.N), "switches/op")
}
