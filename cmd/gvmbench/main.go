// Command gvmbench regenerates the tables and figures of the paper's
// evaluation on the simulated Tesla C2070 node.
//
// Usage:
//
//	gvmbench                  # run everything
//	gvmbench -experiment fig9 # run one artifact
//
// Artifacts: table2, fig9, table3, fig10, table4, fig11-15, fig16.
// Performance of the daemon stack is measured by bench/ (BENCHMARK.json),
// not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"gpuvirt/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "artifact to regenerate: table2|fig9|table3|fig10|table4|fig11-15|fig16|ext-cluster|ext-multigpu|all")
	flag.Parse()

	runners := []struct {
		name string
		run  func() (string, error)
	}{
		{"table2", func() (string, error) {
			rows, err := experiments.TableII()
			if err != nil {
				return "", err
			}
			return experiments.RenderTableII(rows), nil
		}},
		{"fig9", func() (string, error) {
			series, err := experiments.Figure9()
			if err != nil {
				return "", err
			}
			return experiments.RenderSeries("FIGURE 9. TURNAROUND TIME, MICRO-BENCHMARKS", series), nil
		}},
		{"table3", func() (string, error) {
			rows, err := experiments.TableIII()
			if err != nil {
				return "", err
			}
			return experiments.RenderTableIII(rows), nil
		}},
		{"fig10", func() (string, error) {
			pts, err := experiments.Figure10()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure10(pts), nil
		}},
		{"table4", func() (string, error) {
			rows, err := experiments.TableIV()
			if err != nil {
				return "", err
			}
			return experiments.RenderTableIV(rows), nil
		}},
		{"fig11-15", func() (string, error) {
			series, err := experiments.Figures11to15()
			if err != nil {
				return "", err
			}
			return experiments.RenderSeries("FIGURES 11-15. TURNAROUND TIME, APPLICATION BENCHMARKS", series), nil
		}},
		{"fig16", func() (string, error) {
			rows, err := experiments.Figure16()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure16(rows), nil
		}},
		{"ext-cluster", func() (string, error) {
			rows, err := experiments.ExtensionCluster()
			if err != nil {
				return "", err
			}
			return experiments.RenderExtensionCluster(rows), nil
		}},
		{"ext-npb", func() (string, error) {
			series, err := experiments.ExtensionNPB()
			if err != nil {
				return "", err
			}
			return experiments.RenderSeries("EXTENSION. ADDITIONAL NPB KERNELS (IS, FT, class S)", series), nil
		}},
		{"ext-multigpu", func() (string, error) {
			rows, err := experiments.ExtensionMultiGPU()
			if err != nil {
				return "", err
			}
			return experiments.RenderExtensionMultiGPU(rows), nil
		}},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		out, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "gvmbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "gvmbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
