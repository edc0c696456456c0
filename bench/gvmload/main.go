// Command gvmload is the repository's benchmark: a closed-loop load
// generator that spawns real gvmd / gvmfed child processes, drives them
// through the public internal/ipc client, verifies every cycle against a
// reference it computes itself, and prints every metric by name and
// unit. See ../README.md for the metric definitions and the reasons
// behind the estimators; ../run.sh builds the daemons and runs this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run: ring-small, fed-small, bulk-shm, oversub (default: all four in turn)")
	seed := flag.Int64("seed", 1, "seed of the input generator")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement in place of the end-to-end run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload 5 times in two interleaved sets and judge the noise against the bounds in BENCHMARK.json")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the gvmd and gvmfed binaries")
	work := flag.String("work", ".bench_build", "directory for the run's private temp dir (keep it relative: unix socket paths are short)")
	out := flag.String("out", "bench/out", "directory the traced run writes spans-<workload>.json to")
	commit := flag.String("commit", "unknown", "commit under test, echoed in the header")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "gvmload: -seconds must be at least 1 and there are no positional arguments")
		os.Exit(2)
	}

	// Children die and temp dirs go on every exit path: a signal, the
	// watchdog below, or a normal return (each stack stops itself).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	if *selfcheck {
		os.Exit(runSelfcheck(*seed, *seconds, []string{"-bin", *bin, "-work", *work, "-commit", *commit}))
	}

	if *workload == "" {
		// Each workload in a process of its own, as the driver runs them.
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gvmload: %v\n", err)
			os.Exit(2)
		}
		code := 0
		for _, sp := range specs {
			cmd := exec.Command(self, append([]string{"-workload", sp.name}, os.Args[1:]...)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
			if err := cmd.Run(); err != nil {
				code = 1
			}
		}
		os.Exit(code)
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "gvmload: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	// Nothing below should take this long; a run that does is hung
	// somewhere no per-cycle timeout reaches.
	dur := time.Duration(*seconds) * time.Second
	time.AfterFunc(dur+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "gvmload: run overran its watchdog")
		killAll()
		os.Exit(3)
	})
	phaseCPUs := "all"
	if sp.oneCPU {
		phaseCPUs = "one"
	}
	fmt.Printf("# gvmload workload=%s seed=%d seconds=%d trace=%d cold-starts=%d phase-cpus=%s nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		sp.name, *seed, *seconds, *trace, coldStarts, phaseCPUs, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *commit)
	h := harness{bin: *bin, work: *work, warm: warmUp, starts: coldStarts, out: *out}
	var r report
	var err error
	if *trace == 1 {
		r, err = h.runTraced(sp, *seed, dur)
		r.checkSpanSum()
	} else {
		r, err = h.runE2E(sp, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvmload: %s: %v\n", sp.name, err)
		killAll()
		os.Exit(1)
	}
	if !r.print() {
		os.Exit(1)
	}
}

// print writes the human-readable table and, as the last line, the
// machine-readable result. It reports whether the run was correct.
func (r *report) print() bool {
	for _, m := range r.metrics {
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	correct := len(r.problems) == 0 && r.failed == 0
	fmt.Printf("# operations attempted=%d failed=%d correct=%v\n", r.attempted, r.failed, correct)
	for _, p := range r.problems {
		fmt.Printf("# problem: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gvmload: %v\n", err)
		return false
	}
	fmt.Printf("%s\n", line)
	return correct
}
