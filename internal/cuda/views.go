package cuda

import (
	"math"
	"unsafe"
)

// The typed-view helpers below alias device memory as numeric slices.
// Device allocations are 256-byte aligned (see gpusim's allocator), except
// one that lives on a session's staging, which starts where its staging
// region does: 4-byte aligned in a mapped segment, whose output region
// follows the input bytes. amd64 and arm64 load such floats unaligned.

// Float32s views n float32 values of device memory at p.
func Float32s(m Memory, p DevPtr, n int) []float32 {
	b := m.Bytes(p, int64(n)*4)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
}

// Float64s views n float64 values of device memory at p.
func Float64s(m Memory, p DevPtr, n int) []float64 {
	b := m.Bytes(p, int64(n)*8)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// Int32s views n int32 values of device memory at p.
func Int32s(m Memory, p DevPtr, n int) []int32 {
	b := m.Bytes(p, int64(n)*4)
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// HostFloat32Bytes reinterprets a float32 slice as its byte representation
// (little-endian on all supported platforms), for host<->device copies.
func HostFloat32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// HostFloat64Bytes reinterprets a float64 slice as bytes.
func HostFloat64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// AlmostEqual reports whether two floats agree to within rel relative
// tolerance (or 1e-12 absolute near zero), for kernel result validation.
func AlmostEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-12 {
		return diff < 1e-12
	}
	return diff/scale <= rel
}
