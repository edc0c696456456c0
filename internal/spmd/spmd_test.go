package spmd

import (
	"math"
	"testing"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/trace"
	"gpuvirt/internal/workloads"
)

func cfgFor(w workloads.Workload, n int, functional bool) Config {
	return Config{
		Arch:       fermi.TeslaC2070(),
		N:          n,
		Functional: functional,
		SpecFor:    w.Spec,
		SwitchCost: w.SwitchCost,
		FillInput:  w.Fill,
		CheckOutput: func(i int, buf []byte) error {
			if w.Check == nil {
				return nil
			}
			return w.Check(i, buf)
		},
	}
}

// Functional end-to-end: every workload produces host-validated results
// through BOTH execution paths at a reduced scale.
func TestFunctionalWorkloadsBothModes(t *testing.T) {
	small := []workloads.Workload{
		workloads.VectorAdd(4096),
		workloads.EP(12, 4),
		workloads.MM(64),
		workloads.MG(16, 3, 2),
		workloads.BlackScholes(1024, 2, 4),
		workloads.CG(128, 5, 3, 4),
		workloads.Electrostatics(64, 2, 3, 24, 16),
		workloads.IS(4096, 64, 2, 4),
		workloads.FT(8, 2, 4),
	}
	for _, w := range small {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := cfgFor(w, 3, true)
			if _, err := RunDirect(cfg); err != nil {
				t.Fatalf("direct: %v", err)
			}
			if _, err := RunVirt(cfg); err != nil {
				t.Fatalf("virt: %v", err)
			}
		})
	}
}

func TestDirectMatchesEquation1(t *testing.T) {
	// Paper-scale vector add, timing only: the direct path's turnaround
	// must match equation (1) within a small tolerance.
	w := workloads.PaperVectorAdd()
	cfg := cfgFor(w, 8, false)
	params, err := Profile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDirect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := params.TotalNoVirt().Seconds()
	got := res.Turnaround.Seconds()
	// Equation (1) assumes the whole Tinit strictly precedes all cycles;
	// in the simulator (as on real hardware) later processes' context
	// creations overlap earlier processes' cycles, saving exactly
	// (N-1) x ContextCreateCost. The measurement must sit just under the
	// model, by that margin.
	overlap := 7 * cfg.Arch.ContextCreateCost.Seconds()
	if got > want*1.001 {
		t.Fatalf("direct turnaround %.3fs exceeds equation (1) bound %.3fs", got, want)
	}
	if math.Abs(got-(want-overlap))/want > 0.02 {
		t.Fatalf("direct turnaround %.3fs, want %.3fs (eq. (1) %.3fs minus init overlap %.3fs)",
			got, want-overlap, want, overlap)
	}
	if res.ContextSwitches != 7 {
		t.Fatalf("ContextSwitches = %d, want 7 for 8 tasks", res.ContextSwitches)
	}
}

func TestVirtNearEquation4(t *testing.T) {
	// The virtualized path's turnaround approaches equation (4) plus the
	// virtualization-layer overheads (staging copies, messages); the
	// paper's Figure 10 bounds those at <25% for I/O-bound tasks.
	w := workloads.PaperVectorAdd()
	cfg := cfgFor(w, 8, false)
	params, err := Profile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunVirt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ideal := params.TotalVirt().Seconds()
	got := res.Turnaround.Seconds()
	// The model profiles Tin/Tout on pageable memory while the manager
	// stages through (slightly faster) pinned buffers, so the measured
	// turnaround may undercut equation (4) a little; the virtualization
	// overheads push it back up. The paper's Table III shows experiment
	// within ~20% of theory; hold the same band here.
	if got < ideal*0.85 {
		t.Fatalf("virt turnaround %.3fs far below the model bound %.3fs", got, ideal)
	}
	if got > ideal*1.3 {
		t.Fatalf("virt turnaround %.3fs, more than 1.3x the model bound %.3fs (overheads too large)", got, ideal)
	}
	if res.ContextSwitches != 0 {
		t.Fatalf("ContextSwitches = %d under virtualization", res.ContextSwitches)
	}
	if res.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", res.Flushes)
	}
}

func TestVirtEPFlatTurnaround(t *testing.T) {
	// Paper Figure 9 (right): with virtualization, the compute-intensive
	// EP turnaround stays nearly flat as processes increase, because the
	// small kernels execute concurrently.
	w := workloads.EP(24, 4) // reduced class: same shape, faster sim
	t1, err := RunVirt(cfgFor(w, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	t8, err := RunVirt(cfgFor(w, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	growth := t8.Turnaround.Seconds() / t1.Turnaround.Seconds()
	if growth > 1.15 {
		t.Fatalf("EP virt turnaround grew %.2fx from 1 to 8 processes; want ~flat", growth)
	}
}

func TestDirectEPLinearTurnaround(t *testing.T) {
	// Without virtualization the same workload serializes: turnaround at
	// 8 processes is ~8x the single-process cycle (plus init/switches).
	w := workloads.EP(24, 4)
	t1, err := RunDirect(cfgFor(w, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	t8, err := RunDirect(cfgFor(w, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	if t8.Turnaround.Seconds() < 4*t1.Turnaround.Seconds()-2 {
		t.Fatalf("direct EP turnaround t1=%.3fs t8=%.3fs: expected near-linear growth",
			t1.Turnaround.Seconds(), t8.Turnaround.Seconds())
	}
}

func TestProfileReproducesTableII(t *testing.T) {
	w := workloads.PaperVectorAdd()
	params, err := Profile(cfgFor(w, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want float64 // ms
		tol       float64 // relative
	}{
		{"Tinit", params.Tinit.Seconds() * 1e3, 1519.386, 0.01},
		{"Tdata_in", params.TdataIn.Seconds() * 1e3, 135.874, 0.03},
		{"Tcomp", params.Tcomp.Seconds() * 1e3, 0.038, 0.5},
		{"Tdata_out", params.TdataOut.Seconds() * 1e3, 66.656, 0.03},
		{"Tctx_switch", params.TctxSwitch.Seconds() * 1e3, 148.226, 0.001},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want)/c.want > c.tol {
			t.Errorf("VectorAdd %s = %.4f ms, want ~%.4f ms (Table II)", c.name, c.got, c.want)
		}
	}

	ep := workloads.PaperEP()
	epParams, err := Profile(cfgFor(ep, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	if got := epParams.Tcomp.Seconds() * 1e3; math.Abs(got-8951.346)/8951.346 > 0.02 {
		t.Errorf("EP Tcomp = %.1f ms, want ~8951 ms (Table II)", got)
	}
	if got := epParams.Tinit.Seconds() * 1e3; math.Abs(got-1519.4)/1519.4 > 0.01 {
		t.Errorf("EP Tinit = %.1f ms, want ~1519 ms", got)
	}
}

func TestConfigValidation(t *testing.T) {
	w := workloads.VectorAdd(1024)
	bad := []Config{
		{Arch: fermi.TeslaC2070(), N: 0, SpecFor: w.Spec},
		{Arch: fermi.TeslaC2070(), N: 1},
		{Arch: fermi.TeslaC2070(), N: 1, SpecFor: w.Spec, Cycles: -1},
	}
	for i, cfg := range bad {
		if _, err := RunDirect(cfg); err == nil {
			t.Errorf("case %d: RunDirect accepted invalid config", i)
		}
		if _, err := RunVirt(cfg); err == nil {
			t.Errorf("case %d: RunVirt accepted invalid config", i)
		}
	}
}

func TestMultiCycleRuns(t *testing.T) {
	w := workloads.VectorAdd(1 << 16)
	cfg := cfgFor(w, 2, false)
	cfg.Cycles = 3
	// The device's sm lane records one span per kernel run.
	cfg.Tracer = trace.New()
	if _, err := RunDirect(cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.Tracer.LaneSpans("sm")); n != 6 {
		t.Fatalf("direct ran %d kernels, want 6 (2 procs x 3 cycles)", n)
	}
	cfg.Tracer = trace.New()
	vres, err := RunVirt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cfg.Tracer.LaneSpans("sm")); n != 6 {
		t.Fatalf("virt ran %d kernels, want 6", n)
	}
	if vres.Flushes != 3 {
		t.Fatalf("virt Flushes = %d, want 3 (one barrier per cycle)", vres.Flushes)
	}
}

func TestPerProcessTimesPopulated(t *testing.T) {
	w := workloads.VectorAdd(1 << 16)
	res, err := RunVirt(cfgFor(w, 4, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerProcess) != 4 {
		t.Fatalf("PerProcess has %d entries", len(res.PerProcess))
	}
	for i, d := range res.PerProcess {
		if d <= 0 || d > res.Turnaround {
			t.Fatalf("PerProcess[%d] = %v out of range (turnaround %v)", i, d, res.Turnaround)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	w := workloads.EP(20, 4)
	cfg := cfgFor(w, 4, false)
	a, err := RunVirt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunVirt(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Turnaround != b.Turnaround {
		t.Fatalf("virt runs differ: %v vs %v", a.Turnaround, b.Turnaround)
	}
	da, err := RunDirect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := RunDirect(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if da.Turnaround != db.Turnaround {
		t.Fatalf("direct runs differ: %v vs %v", da.Turnaround, db.Turnaround)
	}
}

var _ = sim.Millisecond
var _ = task.Spec{}
