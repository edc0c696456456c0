package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"gpuvirt/internal/ipc"
)

// declared is BENCHMARK.json as the schema test reads it.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func names[T any](v []T, name func(T) string) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = name(x)
	}
	slices.Sort(out)
	return out
}

// testHarness runs the daemons in-process: no child builds, no /proc.
func testHarness(t *testing.T) harness {
	dir := t.TempDir()
	return harness{work: dir, warm: 20 * time.Millisecond, starts: 3, out: dir}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkReport fails the test when a run was not correct or did not emit
// exactly the declared metric names.
func checkReport(t *testing.T, what string, r report, want []string) {
	t.Helper()
	for _, p := range r.problems {
		t.Errorf("%s: %s", what, p)
	}
	// Under -race a bulk cycle can outlast the whole timed phase, so zero
	// attempted is not an error here; the run itself fails when no cycle
	// completed at all.
	if r.failed != 0 {
		t.Errorf("%s: %d of %d operations failed", what, r.failed, r.attempted)
	}
	got := names(r.metrics, func(m metric) string { return m.name })
	for _, n := range got {
		if !nameRE.MatchString(n) {
			t.Errorf("%s: metric name %q breaks the naming rule", what, n)
		}
		if _, ok := slices.BinarySearch(want, n); !ok {
			t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", what, n)
		}
	}
	for _, n := range want {
		if _, ok := slices.BinarySearch(got, n); !ok {
			t.Errorf("%s: BENCHMARK.json declares %q, which was not emitted", what, n)
		}
	}
}

// TestSchema runs every workload briefly, end to end and traced, against
// in-process daemons, and holds the output to BENCHMARK.json. The
// residency checks (restores per cycle >= 0.9 on oversub, none anywhere
// else) are part of every run and surface as report problems. No timing
// is asserted.
func TestSchema(t *testing.T) {
	d := readDeclared(t)
	h := testHarness(t)
	const dur = 300 * time.Millisecond

	want := names(d.Workloads, func(w struct{ Name string }) string { return w.Name })
	if got := names(specs, func(sp spec) string { return sp.name }); !slices.Equal(got, want) {
		t.Fatalf("workloads: gvmload has %v, BENCHMARK.json has %v", got, want)
	}
	e2e := names(d.EndToEnd, func(m struct{ Name string }) string { return m.Name })
	perLayer := names(d.PerLayer, func(m struct{ Name string }) string { return m.Name })

	for _, sp := range specs {
		r, err := h.runE2E(sp, 1, dur)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		checkReport(t, sp.name+" end to end", r, e2e)

		r, err = h.runTraced(sp, 1, dur)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		checkReport(t, sp.name+" traced", r, perLayer)
		if _, err := os.Stat(h.out + "/spans-" + sp.name + ".json"); err != nil {
			t.Errorf("%s traced: %v", sp.name, err)
		}
	}
}

func metricValue(t *testing.T, r report, name string) float64 {
	t.Helper()
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("%s was not emitted", name)
	return 0
}

// TestVirtualTimeRepeats: simulated time per cycle is a property of the
// modelled GPU, so two runs of the one-client ring workload must agree
// to the last digit however many cycles each completed.
func TestVirtualTimeRepeats(t *testing.T) {
	h := testHarness(t)
	sp, _ := specByName("ring-small")
	var got [2]float64
	for i := range got {
		r, err := h.runTraced(sp, 1, 300*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = metricValue(t, r, "gpusim.virtual_ms_per_cycle")
	}
	if got[0] != got[1] || got[0] <= 0 {
		t.Errorf("gpusim.virtual_ms_per_cycle = %v then %v, want one positive value twice", got[0], got[1])
	}
}

// TestDaemonLossFailsOperations kills a server in the middle of a phase:
// the cycles that can no longer complete must show up as failed
// operations, promptly, instead of a client parked on a dead daemon.
func TestDaemonLossFailsOperations(t *testing.T) {
	h := testHarness(t)
	for _, name := range []string{"ring-small", "oversub"} {
		sp, _ := specByName(name)
		// A ring client waits on shared memory, which no closed socket
		// interrupts: its per-cycle timeout is what ends the wait.
		const timeout = time.Second
		b, _, err := h.coldStart(sp, 1, true, ipc.Options{Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		const dur = 300 * time.Millisecond
		killed := make(chan error, 1)
		time.AfterFunc(dur/3, func() { killed <- b.st.daemons[0].close() })
		t0 := time.Now()
		p := drive(b.clients, 0, dur, sp.window, pipelined, b.st.dead)
		if err := <-killed; err != nil {
			t.Errorf("%s: closing the server: %v", name, err)
		}
		if p.failed == 0 || p.err == nil {
			t.Errorf("%s: server closed mid-phase, yet %d of %d operations failed (%v)", name, p.failed, p.attempted, p.err)
		}
		if p.cycles() == 0 {
			t.Errorf("%s: no cycle completed before the server closed", name)
		}
		if el := time.Since(t0); el > dur+2*timeout {
			t.Errorf("%s: phase took %v to notice the dead server", name, el)
		}
		b.close()
	}
}

// TestWrongByteFailsOperation: one flipped bit in what the daemon returns
// is a failed operation.
func TestWrongByteFailsOperation(t *testing.T) {
	h := testHarness(t)
	sp, _ := specByName("ring-small")
	b, _, err := h.coldStart(sp, 1, true, ipc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	flip := func(s *ipc.Session, in, out []byte) error {
		err := s.RunCycle(in, out)
		out[len(out)/2] ^= 1
		return err
	}
	p := drive(b.clients, 0, 50*time.Millisecond, sp.window, flip, b.st.dead)
	if p.failed == 0 || p.cycles() != 0 {
		t.Errorf("every cycle returned a wrong byte, yet %d failed and %d passed", p.failed, p.cycles())
	}
}

// TestWindowCreditAddsUp: whatever the phase length, every completed
// cycle is credited to the windows exactly once in total.
func TestWindowCreditAddsUp(t *testing.T) {
	h := testHarness(t)
	sp, _ := specByName("oversub")
	b, _, err := h.coldStart(sp, 1, true, ipc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	for _, dur := range []time.Duration{416666666, 250 * time.Millisecond, 99 * time.Millisecond} {
		p := drive(b.clients, 10*time.Millisecond, dur, sp.window, pipelined, b.st.dead)
		var credited float64
		for _, w := range p.windows {
			credited += w
		}
		if p.failed != 0 || math.Abs(credited-float64(p.cycles())) > 1e-6*float64(p.cycles()) {
			t.Errorf("%v phase: %d cycles, %.6f credited to %d windows, %d failed", dur, p.cycles(), credited, len(p.windows), p.failed)
		}
	}
}
