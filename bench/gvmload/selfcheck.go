package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// selfcheckRuns is how many runs each of the two sets holds.
const selfcheckRuns = 5

// exactCounters are the per-layer metrics that count instead of timing,
// and so must read the same on every run of the one-client workloads.
var exactCounters = []string{"gpusim.virtual_ms_per_cycle", "ipc.round_trips_per_cycle", "transport.frame_bytes_per_cycle"}

// runOnce runs one workload in a fresh gvmload process and returns the
// result line it printed.
func runOnce(self string, args []string) (result, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%v: %w\n%s", args, err, out)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
		return result{}, fmt.Errorf("%v: bad result (%v)\n%s", args, err, out)
	}
	return res, nil
}

// runSelfcheck measures the benchmark's own noise. Every workload runs
// 2×5 times as fresh processes, the two sets interleaved (A B A B …) so
// that slow drift of the machine lands in both, each run on its own
// seed. For every (metric, workload) it prints both sets' medians, their
// relative difference, the spread of the pooled ten runs, and fails when
// the sets differ by more than half the metric's bound or any single run
// lies further than the bound from the pooled median. setup_s is judged
// as the benchmark contract judges it instead: the two sets' medians
// must agree within the bound, and single runs are not judged. A cold
// start is at the mercy of the neighbours' cache and memory traffic
// (README), single runs stray by a third, and 25 % is the widest bound
// there is. Each set also
// holds one traced run of the one-client workloads, and the exact
// counters of the two must agree to the last digit. It returns the
// process exit code.
func runSelfcheck(seed int64, seconds int, args []string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvmload: %v (run from the root of the checkout)\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "gvmload: BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvmload: %v\n", err)
		return 2
	}
	runArgs := func(sp spec, seed int64, trace int) []string {
		return append([]string{"-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}, args...)
	}

	// values[workload][metric] holds the runs in order; even indices are
	// set A, odd ones set B.
	values := make(map[string]map[string][]float64)
	t0 := time.Now()
	for i := 0; i < 2*selfcheckRuns; i++ {
		for _, sp := range specs {
			res, err := runOnce(self, runArgs(sp, seed+int64(i), 0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "gvmload: selfcheck run %d: %v\n", i, err)
				return 1
			}
			if values[sp.name] == nil {
				values[sp.name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d %-10s done (%v elapsed)\n", i+1, 2*selfcheckRuns, sp.name, time.Since(t0).Round(time.Second))
		}
	}
	// exact[workload][set] is the traced result of that set.
	exact := make(map[string][2]result)
	for _, sp := range specs {
		if sp.clients != 1 {
			continue
		}
		var sets [2]result
		for set := range sets {
			if sets[set], err = runOnce(self, runArgs(sp, seed+int64(set), 1)); err != nil {
				fmt.Fprintf(os.Stderr, "gvmload: selfcheck traced run: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "selfcheck: traced %-10s set %c done (%v elapsed)\n", sp.name, 'A'+set, time.Since(t0).Round(time.Second))
		}
		exact[sp.name] = sets
	}

	fmt.Printf("# noise self-check: %d runs per workload in two interleaved sets (A = even runs, B = odd), %d s phase, seeds %d..%d\n",
		2*selfcheckRuns, seconds, seed, seed+2*selfcheckRuns-1)
	fmt.Printf("# set diff = |median B - median A| / median A, fails above bound/2; stray = furthest run from the pooled median, fails above bound\n")
	fmt.Printf("# setup_s is judged as the benchmark contract judges it: set diff fails above the bound, stray and iqr are printed, not judged\n")
	fmt.Printf("# iqr = (Q3 - Q1) / median of the ten runs, quartiles as Python's statistics.quantiles(n=4)\n")
	fmt.Printf("%-14s %-11s %12s %12s %9s %12s %12s %8s %8s %6s  %s\n",
		"metric", "workload", "median A", "median B", "set diff", "min", "max", "stray", "iqr", "bound", "verdict")
	failed := false
	for _, m := range bf.EndToEnd {
		for _, sp := range specs {
			v := values[sp.name][m.Name]
			var a, b []float64
			for i, x := range v {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			ma, mb, mp := median(a), median(b), median(v)
			diff := math.Abs(mb-ma) / ma
			lo, hi := slices.Min(v), slices.Max(v)
			stray := math.Max(mp-lo, hi-mp) / mp
			q1, q3 := quartiles(v)
			verdict := "ok"
			if m.Name == "setup_s" {
				if diff > m.Bound {
					verdict = "FAIL"
					failed = true
				}
			} else if diff > m.Bound/2 || stray > m.Bound {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("%-14s %-11s %12.6g %12.6g %8.2f%% %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%  %s\n",
				m.Name, sp.name, ma, mb, 100*diff, lo, hi, 100*stray, 100*(q3-q1)/mp, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("# exact counters: one traced run per set on the one-client workloads (seeds %d and %d); any difference fails\n", seed, seed+1)
	fmt.Printf("%-32s %-11s %14s %14s  %s\n", "counter", "workload", "set A", "set B", "verdict")
	for _, name := range exactCounters {
		for _, sp := range specs {
			sets, ok := exact[sp.name]
			if !ok {
				continue
			}
			a, b := sets[0].Metrics[name].Value, sets[1].Metrics[name].Value
			verdict := "ok"
			if a != b || a <= 0 {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("%-32s %-11s %14.9g %14.9g  %s\n", name, sp.name, a, b, verdict)
		}
	}
	fmt.Printf("# every run, in order (A B A B ...)\n")
	for _, m := range bf.EndToEnd {
		for _, sp := range specs {
			fmt.Printf("%-14s %-11s", m.Name, sp.name)
			for _, x := range values[sp.name][m.Name] {
				fmt.Printf(" %.6g", x)
			}
			fmt.Println()
		}
	}
	if failed {
		return 1
	}
	return 0
}

// median of v, which it leaves unsorted.
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles are Q1 and Q3 by the exclusive method: the i-th of n sorted
// values sits at i/(n+1), as Python's statistics.quantiles(v, n=4) has it.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.75)
}
