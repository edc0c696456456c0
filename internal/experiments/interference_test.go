package experiments

import "testing"

// TestInterferenceShort runs the interference experiment and
// asserts the QoS acceptance criteria: under weighted-fair scheduling
// the latency tenant's co-located p99 stays within 2x of solo while the
// FIFO baseline exceeds 2x, batch throughput gives up at most 15%, the
// weighted fairness race splits 1:2:4 almost exactly, and every run's
// functional output is byte-identical.
func TestInterferenceShort(t *testing.T) {
	rep, err := InterferenceBench()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FunctionalMatch {
		t.Error("functional outputs diverged across scheduling modes")
	}
	byMode := map[string]InterferenceRun{}
	for _, r := range rep.Runs {
		byMode[r.Mode] = r
	}
	fifo, ok := byMode["fifo"]
	if !ok {
		t.Fatal("no fifo run in report")
	}
	weighted, ok := byMode["weighted-w8"]
	if !ok {
		t.Fatal("no weighted-w8 run in report")
	}
	if fifo.P99VsSolo <= 2 {
		t.Errorf("FIFO co-located p99 = %.2fx solo, expected the baseline to exceed 2x", fifo.P99VsSolo)
	}
	if weighted.P99VsSolo > 2 {
		t.Errorf("weighted co-located p99 = %.2fx solo, want <= 2x", weighted.P99VsSolo)
	}
	if weighted.BatchVsFIFO < 0.85 {
		t.Errorf("weighted batch throughput = %.3fx FIFO, want >= 0.85x (<= 15%% loss)", weighted.BatchVsFIFO)
	}
	if weighted.Preemptions == 0 {
		t.Error("weighted run recorded no wave-boundary preemptions")
	}
	if fifo.Preemptions != 0 {
		t.Errorf("FIFO run recorded %d preemptions, want 0 (preemption disabled)", fifo.Preemptions)
	}

	var fairFIFO, fairWeighted *FairnessRun
	for i := range rep.Fairness {
		switch rep.Fairness[i].Mode {
		case "fifo":
			fairFIFO = &rep.Fairness[i]
		case "weighted":
			fairWeighted = &rep.Fairness[i]
		}
	}
	if fairFIFO == nil || fairWeighted == nil {
		t.Fatal("missing fairness runs")
	}
	if fairWeighted.JainIndex < 0.95 {
		t.Errorf("weighted Jain index = %.3f, want >= 0.95", fairWeighted.JainIndex)
	}
	if fairWeighted.JainIndex <= fairFIFO.JainIndex {
		t.Errorf("weighted Jain index %.3f not better than FIFO's %.3f",
			fairWeighted.JainIndex, fairFIFO.JainIndex)
	}
}
