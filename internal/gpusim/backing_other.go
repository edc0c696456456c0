//go:build !linux

package gpusim

// newBacking returns size zeroed bytes of device memory. Only Linux has
// transparent huge pages to advise (backing_linux.go).
func newBacking(size int64) []byte { return make([]byte, size) }
