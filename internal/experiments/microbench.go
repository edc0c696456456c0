package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/workloads"
)

// This file is the data-plane microbenchmark harness behind
// `gvmbench -benchjson`: it measures the hot paths the parallel-executor
// PR attacked (functional kernel execution, control-plane framing,
// shared-memory copies, the simulator calendar) with testing.Benchmark
// and emits machine-readable JSON, so results/BENCH_*.json records how
// the numbers moved release over release. The same workloads exist as
// ordinary benchmarks in bench_test.go for interactive `go test -bench`.

// MicroBenchResult is one measured hot-path operation.
type MicroBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// CyclesPerSec is set by the daemon-throughput results: aggregate
	// full-cycle throughput across all concurrent clients.
	CyclesPerSec float64 `json:"cycles_per_sec,omitempty"`
	// The oversubscription sweep (DaemonOversubBench) fills in tail
	// latency and the residency engine's swap traffic: NsPerOp is then the
	// mean cycle turnaround and P99NsPerOp its 99th percentile.
	P99NsPerOp   float64 `json:"p99_ns_per_op,omitempty"`
	SwapOutBytes int64   `json:"swap_out_bytes,omitempty"`
	SwapInBytes  int64   `json:"swap_in_bytes,omitempty"`
	Evictions    int64   `json:"evictions,omitempty"`
	Restores     int64   `json:"restores,omitempty"`
}

// MicroBenchReport is the JSON document `gvmbench -benchjson` writes.
type MicroBenchReport struct {
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	When       string             `json:"when"`
	Note       string             `json:"note,omitempty"`
	Results    []MicroBenchResult `json:"results"`
	// DaemonMetrics is a metrics.Snapshot of the last daemon-throughput
	// server's registry — the same series /metrics serves — taken after
	// the full client matrix ran against it.
	DaemonMetrics []metrics.Sample `json:"daemon_metrics,omitempty"`
	// Interference is the QoS co-location sweep: solo vs co-located tail
	// latency per scheduling mode plus the weighted fairness races.
	Interference *InterferenceReport `json:"interference,omitempty"`
}

type microArena struct {
	data []byte
	next int64
}

func (m *microArena) Bytes(p cuda.DevPtr, n int64) []byte {
	return m.data[p : int64(p)+n : int64(p)+n]
}

func (m *microArena) alloc(n int64) cuda.DevPtr {
	p := cuda.DevPtr(m.next)
	m.next += (n + 255) &^ 255
	return p
}

func microExecPair(name string, build func(m *microArena) *cuda.Kernel) []MicroBenchResult {
	run := func(label string, ex *cuda.Executor) MicroBenchResult {
		mem := &microArena{data: make([]byte, 64<<20), next: 256}
		k := build(mem)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if ex == nil {
					err = k.RunFunctional(mem)
				} else {
					err = ex.Run(k, mem)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		return MicroBenchResult{
			Name:        name + "/" + label,
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
	}
	return []MicroBenchResult{
		run("serial", nil),
		run("parallel-4w", cuda.NewExecutor(4)),
	}
}

func microResult(name string, fn func(b *testing.B)) MicroBenchResult {
	r := testing.Benchmark(fn)
	return MicroBenchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// MicroBench measures every data-plane hot path and returns the report.
func MicroBench() MicroBenchReport {
	rep := MicroBenchReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	// Always record the host's parallelism in the note: the absolute
	// numbers (and especially any cross-report comparison) are
	// meaningless without it.
	rep.Note = fmt.Sprintf("host: numcpu=%d gomaxprocs=%d", rep.NumCPU, rep.GOMAXPROCS)
	if runtime.NumCPU() < 2 {
		rep.Note += "; single-CPU host: parallel-executor variants measure pool overhead, not speedup; daemon-cycle client-count scaling is serialized on one core and understates multi-core throughput"
	}

	rep.Results = append(rep.Results, microExecPair("functional-exec-mm", func(m *microArena) *cuda.Kernel {
		const n = 256
		pa, pb, pc := m.alloc(n*n*4), m.alloc(n*n*4), m.alloc(n*n*4)
		av := cuda.Float32s(m, pa, n*n)
		bv := cuda.Float32s(m, pb, n*n)
		for i := range av {
			av[i] = float32(i%13) / 13
			bv[i] = float32(i%11) / 11
		}
		return kernels.NewMM(pa, pb, pc, n)
	})...)
	rep.Results = append(rep.Results, microExecPair("functional-exec-electrostatics", func(m *microArena) *cuda.Kernel {
		const natoms = 2000
		p := kernels.ESParams{GridX: 128, GridY: 64, Spacing: 0.5, Z: 1}
		pa := m.alloc(natoms * 4 * 4)
		po := m.alloc(int64(p.GridX*p.GridY) * 4)
		atoms := cuda.Float32s(m, pa, natoms*4)
		for i := range atoms {
			atoms[i] = float32(i%29) * 0.3
		}
		return kernels.NewElectrostatics(pa, po, natoms, 1, 32, p)
	})...)
	rep.Results = append(rep.Results, microExecPair("functional-exec-blackscholes", func(m *microArena) *cuda.Kernel {
		const n = 100_000
		ps, px, pt := m.alloc(n*4), m.alloc(n*4), m.alloc(n*4)
		pc, pp := m.alloc(n*4), m.alloc(n*4)
		s := cuda.Float32s(m, ps, n)
		x := cuda.Float32s(m, px, n)
		tt := cuda.Float32s(m, pt, n)
		for i := range s {
			s[i] = 5 + float32(i%100)
			x[i] = 1 + float32(i%50)
			tt[i] = 0.25 + float32(i%40)/4
		}
		return kernels.NewBlackScholes(ps, px, pt, pc, pp, n, 4, 60, kernels.DefaultBSParams())
	})...)

	req := transport.Request{
		Verb: "REQ",
		Rank: 3,
		Ref: &workloads.Ref{
			Name:   "vecadd",
			Params: map[string]int{"n": 50_000_000, "grid": 48829},
		},
	}
	rep.Results = append(rep.Results, microResult("ipc-frame-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			var got transport.Request
			if err := json.Unmarshal(buf, &got); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Results = append(rep.Results, microResult("ipc-frame-binary", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = transport.EncodeRequestBinary(buf[:0], req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := transport.DecodeRequestBinary(buf); err != nil {
				b.Fatal(err)
			}
		}
	}))

	rep.Results = append(rep.Results, microResult("shm-copy-mmap", func(b *testing.B) {
		const n = 1 << 20
		dir, err := os.MkdirTemp("", "gvmbench-shm")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		s, err := shm.NewFile(dir, "bench-seg", n)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		src := make([]byte, n)
		dst := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.WriteAt(src, 0); err != nil {
				b.Fatal(err)
			}
			if err := s.ReadAt(dst, 0); err != nil {
				b.Fatal(err)
			}
		}
	}))

	rep.Results = append(rep.Results, microResult("sim-calendar-sched-drain-64", func(b *testing.B) {
		env := sim.NewEnv()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				env.After(sim.Duration(j%16+1)*sim.Microsecond, func() {})
			}
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	rep.Results = append(rep.Results, microResult("sim-calendar-same-instant-64", func(b *testing.B) {
		env := sim.NewEnv()
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				env.After(0, func() {})
			}
			if err := env.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return rep
}

// WriteMicroBenchJSON runs MicroBench plus the daemon-throughput
// matrices (DaemonBench's transport × clients × pipelining grid,
// DaemonShardBench's shard-count dimension, and DaemonOversubBench's
// memory-oversubscription sweep) and writes the combined report to path,
// embedding the daemon's metrics snapshot alongside the timing results.
func WriteMicroBenchJSON(path string) error {
	rep := MicroBench()
	daemon, snap := DaemonBench()
	rep.Results = append(rep.Results, daemon...)
	rep.Results = append(rep.Results, DaemonShardBench()...)
	rep.Results = append(rep.Results, FedBench()...)
	rep.Results = append(rep.Results, DaemonOversubBench()...)
	rep.DaemonMetrics = snap
	interf, err := InterferenceBench(false)
	if err != nil {
		return fmt.Errorf("interference bench: %w", err)
	}
	rep.Interference = interf
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
