package experiments

import (
	"math"
	"strings"
	"testing"

	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

func TestTableIIReproducesPaper(t *testing.T) {
	rows, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	va, ep := rows[0], rows[1]
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s = %.3f, want ~%.3f (Table II)", name, got, want)
		}
	}
	within("vecadd Tinit(ms)", va.Tinit.Seconds()*1e3, 1519.386, 0.01)
	within("vecadd Tdata_in(ms)", va.TdataIn.Seconds()*1e3, 135.874, 0.03)
	within("vecadd Tdata_out(ms)", va.TdataOut.Seconds()*1e3, 66.656, 0.03)
	within("vecadd Tctx(ms)", va.TctxSwitch.Seconds()*1e3, 148.226, 0.001)
	within("ep Tcomp(ms)", ep.Tcomp.Seconds()*1e3, 8951.346, 0.02)
	within("ep Tctx(ms)", ep.TctxSwitch.Seconds()*1e3, 220.599, 0.001)

	out := RenderTableII(rows)
	for _, label := range []string{"Tinit", "Tdata_in", "Tcomp", "Tdata_out", "Tctx_switch", "VectorAdd", "EP"} {
		if !strings.Contains(out, label) {
			t.Errorf("rendered Table II missing %q:\n%s", label, out)
		}
	}
}

func TestTableIIIShapeMatchesPaper(t *testing.T) {
	rows, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	va, ep := rows[0], rows[1]
	// Paper Table III: vecadd exp 2.300 / theo 2.721; EP exp 7.394 /
	// theo 8.341. Shapes to hold: theory >= experiment, deviation < 20%,
	// EP speedup ~3-4x the vecadd speedup.
	for _, r := range rows {
		if r.Theoretical < r.Experimental {
			t.Errorf("%s: theoretical %.3f < experimental %.3f; the model must upper-bound", r.Name, r.Theoretical, r.Experimental)
		}
		if r.Deviation < 0 || r.Deviation > 0.20 {
			t.Errorf("%s: deviation %.1f%%, want within [0, 20]%% (Table III)", r.Name, r.Deviation*100)
		}
	}
	if va.Experimental < 2.0 || va.Experimental > 4.0 {
		t.Errorf("vecadd experimental speedup %.2f outside the paper band ~2.3-3.6", va.Experimental)
	}
	if ep.Experimental < 7.0 || ep.Experimental > 8.5 {
		t.Errorf("EP experimental speedup %.2f outside the paper band ~7.4-8.3", ep.Experimental)
	}
	if math.Abs(ep.Theoretical-8.341) > 0.05 {
		t.Errorf("EP theoretical speedup %.3f, paper reports 8.341", ep.Theoretical)
	}
	if !strings.Contains(RenderTableIII(rows), "Theoretical Deviation") {
		t.Error("rendered Table III missing the deviation row")
	}
}

func TestFigure10OverheadBounded(t *testing.T) {
	pts, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 6 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.OverheadPct < 0 {
			t.Errorf("%d MB: negative overhead %.1f%%", p.DataMB, p.OverheadPct)
		}
		// The paper's claim: even at 400 MB the overhead stays under ~25%.
		if p.OverheadPct > 25 {
			t.Errorf("%d MB: overhead %.1f%% exceeds the paper's <25%% bound", p.DataMB, p.OverheadPct)
		}
		if p.TurnaroundMS <= p.PureGPUMS {
			t.Errorf("%d MB: turnaround %.1f <= pure %.1f", p.DataMB, p.TurnaroundMS, p.PureGPUMS)
		}
	}
	if !strings.Contains(RenderFigure10(pts), "overhead") {
		t.Error("rendered Figure 10 missing header")
	}
}

func TestFigure9Shapes(t *testing.T) {
	series, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	va, ep := series[0], series[1]
	// I/O-intensive: no-virt grows much faster than virt.
	vaNoVirtGrowth := va.NoVirtMS[7] - va.NoVirtMS[0]
	vaVirtGrowth := va.VirtMS[7] - va.VirtMS[0]
	if vaNoVirtGrowth < 2*vaVirtGrowth {
		t.Errorf("vecadd: no-virt growth %.0fms vs virt %.0fms; paper shows a sharp no-virt rise",
			vaNoVirtGrowth, vaVirtGrowth)
	}
	// Compute-intensive: virt turnaround is flat (within 1%).
	if ep.VirtMS[7] > ep.VirtMS[0]*1.01 {
		t.Errorf("EP virt turnaround grew from %.0f to %.0f ms; paper shows it flat",
			ep.VirtMS[0], ep.VirtMS[7])
	}
	// Virtualization wins at every point.
	for _, s := range series {
		for i := range s.N {
			if s.VirtMS[i] >= s.NoVirtMS[i] {
				t.Errorf("%s N=%d: virt %.0f >= no-virt %.0f", s.Workload, s.N[i], s.VirtMS[i], s.NoVirtMS[i])
			}
		}
	}
	if !strings.Contains(RenderSeries("T", series), "speedup") {
		t.Error("rendered series missing speedup column")
	}
}

func TestTableIVCatalog(t *testing.T) {
	rows, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	want := map[string]int{"MM": 4096, "MG": 64, "BlackScholes": 480, "CG": 8, "Electrostatics": 288}
	for _, r := range rows {
		if g, ok := want[r.Name]; !ok || r.GridSize != g {
			t.Errorf("%s: grid %d, want %d", r.Name, r.GridSize, g)
		}
		if r.CycleMS <= 0 {
			t.Errorf("%s: empty cycle", r.Name)
		}
	}
	if !strings.Contains(RenderTableIV(rows), "Problem Size") {
		t.Error("rendered Table IV missing header")
	}
}

func TestFigure16Band(t *testing.T) {
	rows, err := Figure16()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]float64{}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		byName[r.Name] = r.Experimental
		lo = math.Min(lo, r.Experimental)
		hi = math.Max(hi, r.Experimental)
	}
	// Paper: "all five benchmarks achieved speedups from 1.4 to 4.1".
	if lo < 1.3 || hi > 4.5 {
		t.Errorf("speedups span [%.2f, %.2f], paper band is [1.4, 4.1]", lo, hi)
	}
	// Paper: "MG and CG achieve better performance gains".
	for _, other := range []string{"MM", "BlackScholes", "Electrostatics"} {
		if byName["MG"] <= byName[other] || byName["CG"] <= byName[other] {
			t.Errorf("MG (%.2f) and CG (%.2f) must beat %s (%.2f)",
				byName["MG"], byName["CG"], other, byName[other])
		}
	}
	if !strings.Contains(RenderFigure16(rows), "SPEEDUPS") {
		t.Error("rendered Figure 16 missing header")
	}
}

func TestFigures11to15Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweeps skipped in -short mode")
	}
	series, err := Figures11to15()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 {
		t.Fatalf("%d series, want 5", len(series))
	}
	for _, s := range series {
		// Virtualization wins at every process count, including N=1
		// (initialization elimination), as the paper reports.
		for i := range s.N {
			if s.VirtMS[i] >= s.NoVirtMS[i] {
				t.Errorf("%s N=%d: virt %.1f >= no-virt %.1f", s.Workload, s.N[i], s.VirtMS[i], s.NoVirtMS[i])
			}
		}
		// No-virt turnaround strictly grows with process count.
		for i := 1; i < len(s.N); i++ {
			if s.NoVirtMS[i] <= s.NoVirtMS[i-1] {
				t.Errorf("%s: no-virt not increasing at N=%d", s.Workload, s.N[i])
			}
		}
	}
}

// clusterRows runs the ext-cluster experiment and splits out its local-GVM,
// InfiniBand and gigabit-Ethernet rows.
func clusterRows(t *testing.T) (local, ib, ge ClusterRow) {
	t.Helper()
	rows, err := ExtensionCluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	return rows[0], rows[1], rows[2]
}

func TestExtensionCluster(t *testing.T) {
	rows, err := ExtensionCluster()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if ib, ge := rows[1], rows[2]; ib.RemoteProcs != 8 || ge.RemoteProcs != 8 {
		t.Fatalf("remote rows have %d and %d remote processes, want 8", ib.RemoteProcs, ge.RemoteProcs)
	}
	if !strings.Contains(RenderExtensionCluster(rows), "REMOTE GPU ACCESS") {
		t.Fatal("render missing header")
	}
}

func TestInterconnectTransferTime(t *testing.T) {
	ic := interconnect{bandwidth: 1e9, latency: 10 * sim.Microsecond}
	if got := ic.transferTime(0); got != 10*sim.Microsecond {
		t.Fatalf("latency-only message = %v", got)
	}
	if got := ic.transferTime(1e9); got != sim.Second+10*sim.Microsecond {
		t.Fatalf("1 GB message = %v", got)
	}
	if qdrInfiniBand.bandwidth <= gigabitEthernet.bandwidth {
		t.Fatal("InfiniBand should be faster than GigE")
	}
}

func TestLocalJobMatchesSingleNode(t *testing.T) {
	// One GPU node, local processes only: no network time.
	local, _, _ := clusterRows(t)
	if local.NetworkMS != 0 || local.RemoteProcs != 0 {
		t.Fatalf("local row has network activity: %+v", local)
	}
	if local.TurnaroundMS <= 0 {
		t.Fatal("no turnaround measured")
	}
}

func TestRemoteAccessPaysNetworkCosts(t *testing.T) {
	_, ib, ge := clusterRows(t)
	// Each remote process ships its input and its output across the wire.
	spec := workloads.VectorAdd(10_000_000).Spec(0)
	payload := qdrInfiniBand.transferTime(spec.InBytes) + qdrInfiniBand.transferTime(spec.OutBytes)
	if floor := 8 * payload.Seconds() * 1e3; ib.NetworkMS < floor {
		t.Fatalf("InfiniBand network time %.1f ms < 8 payloads' wire time %.1f ms", ib.NetworkMS, floor)
	}
	// A slower network hurts more.
	if ge.TurnaroundMS <= ib.TurnaroundMS || ge.NetworkMS <= ib.NetworkMS {
		t.Fatalf("GigE (%.1f ms, %.1f ms on the wire) not slower than InfiniBand (%.1f ms, %.1f ms)",
			ge.TurnaroundMS, ge.NetworkMS, ib.TurnaroundMS, ib.NetworkMS)
	}
}

func TestLocalVirtualizationBeatsRemoteAccess(t *testing.T) {
	// The paper's argument against related work [11]: 8 processes on one
	// GPU node through the local GVM vs 8 processes on GPU-less nodes
	// reaching the same GPU remotely.
	local, ib, ge := clusterRows(t)
	if ib.TurnaroundMS <= local.TurnaroundMS {
		t.Fatalf("InfiniBand remote (%.1f) not slower than local (%.1f)", ib.TurnaroundMS, local.TurnaroundMS)
	}
	if ge.TurnaroundMS <= local.TurnaroundMS {
		t.Fatalf("GigE remote (%.1f) not slower than local (%.1f)", ge.TurnaroundMS, local.TurnaroundMS)
	}
}

func TestExtensionMultiGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-GPU sweep skipped in -short mode")
	}
	rows, err := ExtensionMultiGPU()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[1].Scaling < 1.6 || rows[2].Scaling < 2.8 {
		t.Fatalf("scaling %.2f / %.2f, want ~1.9 / ~3.6 for a saturating workload",
			rows[1].Scaling, rows[2].Scaling)
	}
	if !strings.Contains(RenderExtensionMultiGPU(rows), "MULTI-GPU") {
		t.Fatal("render missing header")
	}
}

func TestExtensionNPBShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("NPB extension sweep skipped in -short mode")
	}
	series, err := ExtensionNPB()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 || series[0].Workload != "IS" || series[1].Workload != "FT" {
		t.Fatalf("series = %+v", series)
	}
	for _, s := range series {
		for i := range s.N {
			if s.VirtMS[i] >= s.NoVirtMS[i] {
				t.Errorf("%s N=%d: virt %.1f >= no-virt %.1f", s.Workload, s.N[i], s.VirtMS[i], s.NoVirtMS[i])
			}
		}
	}
}
