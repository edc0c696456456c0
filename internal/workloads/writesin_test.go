package workloads

import (
	"bytes"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/task"
)

// smallParams sizes every registered workload for a functional cycle that
// takes milliseconds.
var smallParams = map[string]map[string]int{
	"vecadd":         {"n": 1000},
	"copy":           {"n": 1000},
	"ep":             {"m": 10, "grid": 2},
	"mm":             {"n": 32},
	"mg":             {"n": 8, "levels": 2, "nit": 1},
	"blackscholes":   {"n": 1000, "nit": 2, "grid": 4},
	"cg":             {"na": 100, "nonzer": 3, "nit": 2, "grid": 2},
	"electrostatics": {"atoms": 50, "nit": 2, "grid": 4, "gridx": 16, "gridy": 8},
	"is":             {"n": 1024, "buckets": 64, "nit": 2, "grid": 4},
	"ft":             {"edge": 8, "nit": 2, "grid": 4},
}

// flatMem is device memory as one host slice: an allocator handing out
// 256-byte-aligned offsets and the cuda.Memory kernels read them through.
type flatMem struct{ b []byte }

func (f *flatMem) Malloc(n int64) (cuda.DevPtr, error) {
	p := (int64(len(f.b)) + 255) &^ 255
	f.b = append(f.b, make([]byte, p+n-int64(len(f.b)))...)
	return cuda.DevPtr(p), nil
}

func (f *flatMem) Bytes(p cuda.DevPtr, n int64) []byte { return f.b[p : int64(p)+n : int64(p)+n] }

// TestWritesInMatchesKernels pins task.Spec.WritesIn to what the kernels
// do: one functional cycle of every registered workload changes its input
// bytes exactly when its spec says a kernel writes them. A workload whose
// kernels write their input but whose spec says otherwise would compute a
// re-run from its last run's leftovers once its device input is the
// client's staging.
func TestWritesInMatchesKernels(t *testing.T) {
	for _, name := range Names() {
		w, err := FromRef(Ref{Name: name, Params: smallParams[name]})
		if err != nil {
			t.Fatal(err)
		}
		spec := w.Spec(0)
		mem := &flatMem{b: make([]byte, 256)} // offset 0 is the null pointer
		var in, out cuda.DevPtr
		if spec.InBytes > 0 {
			in, _ = mem.Malloc(spec.InBytes)
		}
		if spec.OutBytes > 0 {
			out, _ = mem.Malloc(spec.OutBytes)
		}
		var ks []*cuda.Kernel
		if spec.Build != nil {
			var scratch []cuda.DevPtr
			if ks, err = spec.Build(&task.Buffers{In: in, Out: out, Alloc: mem, Scratch: &scratch}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var staged []byte
		if spec.InBytes > 0 {
			if w.Fill != nil {
				w.Fill(0, mem.Bytes(in, spec.InBytes))
			}
			staged = bytes.Clone(mem.Bytes(in, spec.InBytes))
		}
		for _, k := range ks {
			if err := k.RunFunctional(mem); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if w.Check != nil {
			if err := w.Check(0, mem.Bytes(out, spec.OutBytes)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		written := spec.InBytes > 0 && !bytes.Equal(staged, mem.Bytes(in, spec.InBytes))
		if written != spec.WritesIn {
			t.Errorf("%s: a cycle changes its input: %v; spec.WritesIn: %v", name, written, spec.WritesIn)
		}
	}
}
