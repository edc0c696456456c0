//go:build !unix

package shm

import (
	"errors"
	"os"
)

// mapFile is unavailable on this platform, so file-backed segments (and
// with them the daemon's shm and ring planes) are too; tcp + inline still
// works.
func mapFile(f *os.File, n int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

func unmapFile(b []byte) error { return nil }
