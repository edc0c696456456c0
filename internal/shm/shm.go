// Package shm provides the virtual shared-memory segments the GVM uses as
// its data plane: one segment per client process, written by the client
// (paper Section V).
//
// Segments come in two flavors. In-memory segments serve the simulator
// (optionally timing-only, carrying no bytes); there the manager stages
// the segment into pinned host memory, as in the paper. File-backed
// segments in the daemon's -shm directory (default /dev/shm, what POSIX
// shared memory is on Linux) serve the real multi-process daemon, which
// maps them and binds each session's pinned staging onto the mapping, so
// the segment IS the staging and no second host copy exists. A mapping of
// 2 MiB or more is advised onto huge pages (hugepage_linux.go).
package shm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// Segment is a fixed-size shared memory region.
type Segment interface {
	// WriteAt copies p into the segment at off. In timing-only segments
	// it validates bounds and discards the data.
	WriteAt(p []byte, off int64) error
	// ReadAt fills p from the segment at off.
	ReadAt(p []byte, off int64) error
	// Bytes returns the backing slice: the in-memory buffer for
	// functional memory segments, the mmap'd region for file-backed
	// segments. It returns nil for timing-only segments. A file-backed
	// segment's slice is invalid after Close.
	Bytes() []byte
	// Close releases the segment.
	Close() error
}

// NewMemory returns an in-memory segment of n bytes. If functional is
// false the segment is timing-only: bounds are enforced but no memory is
// reserved and no bytes move.
func NewMemory(n int64, functional bool) Segment {
	s := &memSegment{size: n}
	if functional {
		s.data = make([]byte, n)
	}
	return s
}

type memSegment struct {
	size int64
	data []byte
}

func (s *memSegment) check(n int, off int64) error {
	if off < 0 || off+int64(n) > s.size {
		return fmt.Errorf("shm: access [%d, %d) outside segment of %d bytes", off, off+int64(n), s.size)
	}
	return nil
}

func (s *memSegment) WriteAt(p []byte, off int64) error {
	if err := s.check(len(p), off); err != nil {
		return err
	}
	if s.data != nil {
		copy(s.data[off:], p)
	}
	return nil
}

func (s *memSegment) ReadAt(p []byte, off int64) error {
	if err := s.check(len(p), off); err != nil {
		return err
	}
	if s.data != nil {
		copy(p, s.data[off:])
	}
	return nil
}

func (s *memSegment) Bytes() []byte { return s.data }
func (s *memSegment) Close() error  { s.data = nil; return nil }

// DefaultDir returns the directory for file-backed segments: /dev/shm if
// present (Linux POSIX shared memory), else the system temp directory.
func DefaultDir() string {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		return "/dev/shm"
	}
	return os.TempDir()
}

// NewFile creates a file-backed segment named name in dir ("" =
// DefaultDir), sized to n > 0 bytes, and maps it. This is the real-IPC data
// plane used by the gvmd daemon; separate OS processes open the same name.
// The name must be new: a file already there is someone else's segment, and
// NewFile fails rather than share it.
func NewFile(dir, name string, n int64) (Segment, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shm: create %s: %w", path, err)
	}
	if err := f.Truncate(n); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shm: size %s: %w", path, err)
	}
	mapped, err := mapFile(f, n)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shm: map %s (%d bytes): %w", path, n, err)
	}
	return &fileSegment{f: f, size: n, path: path, owner: true, mapped: mapped}, nil
}

// OpenFile attaches to (and maps) an existing file-backed segment.
func OpenFile(dir, name string) (Segment, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("shm: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	mapped, err := mapFile(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: map %s (%d bytes): %w", path, st.Size(), err)
	}
	return &fileSegment{f: f, size: st.Size(), path: path, mapped: mapped}, nil
}

// RemoveStale deletes file-backed segments in dir ("" = DefaultDir) named
// prefix + "<pid>-…", where pid is the process that created them. With
// pid == 0 it is a daemon's start-up sweep, run before the daemon creates
// any: it removes those of every process that no longer exists, and those
// named with the caller's own pid, which an earlier daemon with the same pid
// left when it was killed (a restarted container's PID 1). It spares the
// files of any other live process, which may be another daemon's on the same
// directory. With pid > 0 it removes only that process's own — a daemon's
// shutdown sweep. Names of any other shape are left alone. It returns how
// many were removed; the error reflects the first failure, after attempting
// all.
func RemoveStale(dir, prefix string, pid int) (int, error) {
	if prefix == "" {
		return 0, fmt.Errorf("shm: RemoveStale needs a non-empty prefix")
	}
	if dir == "" {
		dir = DefaultDir()
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("shm: scan %s: %w", dir, err)
	}
	self := os.Getpid()
	removed := 0
	var firstErr error
	for _, e := range entries {
		owner, ok := segOwner(e.Name(), prefix)
		if e.IsDir() || !ok || pid > 0 && owner != pid || pid == 0 && owner != self && !gone(owner) {
			continue
		}
		if rmErr := os.Remove(filepath.Join(dir, e.Name())); rmErr != nil {
			if firstErr == nil {
				firstErr = rmErr
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}

// segOwner parses the creating process's pid out of a name prefix + "<pid>-…".
func segOwner(name, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	digits, _, dash := strings.Cut(rest, "-")
	pid, err := strconv.Atoi(digits)
	return pid, ok && dash && err == nil && pid > 0
}

// gone reports whether no process pid exists: kill(pid, 0) fails with ESRCH.
// Where that cannot be told, the process counts as alive.
func gone(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	defer p.Release()
	return errors.Is(p.Signal(syscall.Signal(0)), os.ErrProcessDone)
}

// fileSegment is a file in the daemon's -shm directory (default /dev/shm),
// mmap'd into the process: ReadAt/WriteAt are plain memcpy and Bytes
// exposes the shared region directly.
type fileSegment struct {
	f      *os.File
	size   int64
	path   string
	owner  bool
	mapped []byte
}

func (s *fileSegment) check(n int, off int64) error {
	if off < 0 || off+int64(n) > s.size {
		return fmt.Errorf("shm: access outside segment %s", s.path)
	}
	if s.mapped == nil {
		return fmt.Errorf("shm: segment %s is closed", s.path)
	}
	return nil
}

func (s *fileSegment) WriteAt(p []byte, off int64) error {
	if err := s.check(len(p), off); err != nil {
		return err
	}
	copy(s.mapped[off:], p)
	return nil
}

func (s *fileSegment) ReadAt(p []byte, off int64) error {
	if err := s.check(len(p), off); err != nil {
		return err
	}
	copy(p, s.mapped[off:])
	return nil
}

func (s *fileSegment) Bytes() []byte { return s.mapped }

func (s *fileSegment) Close() error {
	var err error
	if s.mapped != nil {
		err = unmapFile(s.mapped)
		s.mapped = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if s.owner {
		if rmErr := os.Remove(s.path); err == nil {
			err = rmErr
		}
	}
	return err
}
