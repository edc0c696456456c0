package shm

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/quick"
)

func TestMemorySegmentRoundTrip(t *testing.T) {
	s := NewMemory(64, true)
	defer s.Close()
	if n := len(s.Bytes()); n != 64 {
		t.Fatalf("segment is %d bytes, want 64", n)
	}
	data := []byte("hello shared memory")
	if err := s.WriteAt(data, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := s.ReadAt(got, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	if s.Bytes() == nil {
		t.Fatal("functional segment has no backing")
	}
}

func TestMemorySegmentBounds(t *testing.T) {
	s := NewMemory(16, true)
	defer s.Close()
	cases := []struct {
		n   int
		off int64
	}{
		{4, -1}, // negative offset
		{4, 13}, // crosses the end
		{17, 0}, // larger than the segment
		{1, 16}, // just past the end
	}
	for _, c := range cases {
		if err := s.WriteAt(make([]byte, c.n), c.off); err == nil {
			t.Errorf("WriteAt(%d bytes at %d) succeeded", c.n, c.off)
		}
		if err := s.ReadAt(make([]byte, c.n), c.off); err == nil {
			t.Errorf("ReadAt(%d bytes at %d) succeeded", c.n, c.off)
		}
	}
}

func TestTimingOnlySegment(t *testing.T) {
	s := NewMemory(32, false)
	defer s.Close()
	if s.Bytes() != nil {
		t.Fatal("timing-only segment has backing memory")
	}
	// Bounds are still enforced; data is discarded.
	if err := s.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt(make([]byte, 8), 30); err == nil {
		t.Fatal("out-of-bounds write accepted on timing-only segment")
	}
	if err := s.ReadAt(make([]byte, 8), 24); err != nil {
		t.Fatal(err)
	}
}

func TestFileSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(dir, "seg-test", 128)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5}
	if err := s.WriteAt(data, 40); err != nil {
		t.Fatal(err)
	}
	// Another attachment (a second "process") sees the same bytes.
	o, err := OpenFile(dir, "seg-test")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := o.ReadAt(got, 40); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-attachment read %v, want %v", got, data)
	}
	if n := len(o.Bytes()); n != 128 {
		t.Fatalf("attached segment is %d bytes, want 128", n)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	// Owner close removes the file.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-test")); !os.IsNotExist(err) {
		t.Fatal("owner Close did not remove the segment file")
	}
}

func TestFileSegmentBounds(t *testing.T) {
	s, err := NewFile(t.TempDir(), "b", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.WriteAt(make([]byte, 8), 12); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if err := s.ReadAt(make([]byte, 8), -1); err == nil {
		t.Fatal("negative-offset read accepted")
	}
	if n := len(s.Bytes()); n != 16 {
		t.Fatalf("mapped slice is %d bytes, segment is 16", n)
	}
}

// TestFileSegmentMmapVisibility checks that two mappings of one segment
// stay coherent: bytes written through Bytes() are visible to a second
// attachment and vice versa.
func TestFileSegmentMmapVisibility(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(dir, "seg-mmap", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o, err := OpenFile(dir, "seg-mmap")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	// Direct slice write on one attachment, ReadAt on the other.
	copy(s.Bytes()[10:], "shared")
	got := make([]byte, 6)
	if err := o.ReadAt(got, 10); err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared" {
		t.Fatalf("cross-attachment read %q, want %q", got, "shared")
	}
	// WriteAt on one attachment, direct slice read on the other.
	if err := o.WriteAt([]byte("reply"), 32); err != nil {
		t.Fatal(err)
	}
	if string(s.Bytes()[32:37]) != "reply" {
		t.Fatalf("mapped view reads %q, want %q", s.Bytes()[32:37], "reply")
	}
}

// TestFileSegmentEmpty: a zero-length segment cannot be mapped, so it is
// rejected outright and leaves no file behind.
func TestFileSegmentEmpty(t *testing.T) {
	dir := t.TempDir()
	if s, err := NewFile(dir, "seg-empty", 0); err == nil {
		s.Close()
		t.Fatal("NewFile accepted an empty segment")
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-empty")); !os.IsNotExist(err) {
		t.Fatal("rejected NewFile left its file behind")
	}
}

// TestNewFileSizeFailureLeavesNoFile: a size the file cannot take — a
// negative one, or 4 EiB, past ext4's limit — fails NewFile and leaves no
// file behind.
func TestNewFileSizeFailureLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int64{-1, 1 << 62} {
		if s, err := NewFile(dir, "seg-size", n); err == nil {
			s.Close()
			t.Fatalf("NewFile accepted a segment of %d bytes", n)
		}
		if _, err := os.Stat(filepath.Join(dir, "seg-size")); !os.IsNotExist(err) {
			t.Fatalf("NewFile of %d bytes failed and left its file behind", n)
		}
	}
}

// TestFileSegmentUseAfterClose: access through a closed (unmapped)
// segment is an error, not a fault.
func TestFileSegmentUseAfterClose(t *testing.T) {
	s, err := NewFile(t.TempDir(), "seg-closed", 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("write through a closed segment accepted")
	}
	if err := s.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read through a closed segment accepted")
	}
}

func TestOpenMissingSegment(t *testing.T) {
	if _, err := OpenFile(t.TempDir(), "nope"); err == nil {
		t.Fatal("OpenFile of a missing segment succeeded")
	}
}

func TestDefaultDirExists(t *testing.T) {
	st, err := os.Stat(DefaultDir())
	if err != nil || !st.IsDir() {
		t.Fatalf("DefaultDir %q unusable: %v", DefaultDir(), err)
	}
}

// Property: any sequence of in-bounds writes followed by reads returns
// exactly what was written last to each byte.
func TestQuickMemorySegmentConsistency(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		Data []byte
	}) bool {
		const size = 4096
		s := NewMemory(size, true)
		defer s.Close()
		shadow := make([]byte, size)
		for _, op := range ops {
			off := int64(op.Off % size)
			data := op.Data
			if int64(len(data))+off > size {
				data = data[:size-off]
			}
			if err := s.WriteAt(data, off); err != nil {
				return false
			}
			copy(shadow[off:], data)
		}
		got := make([]byte, size)
		if err := s.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNewFileExclusive: a segment name already in use is refused, never
// shared, and the first segment keeps working.
func TestNewFileExclusive(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFile(dir, "seg-once", 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if again, err := NewFile(dir, "seg-once", 16); err == nil {
		again.Close()
		t.Fatal("NewFile opened a segment name that was already in use")
	}
	if err := s.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveStale: the start-up sweep (pid 0) removes the files named with
// a pid no process has — above Linux's largest pid_max, 2^22 — and those
// named with the caller's own pid, a killed predecessor's with the same pid;
// it spares another live process's (the parent's). The shutdown sweep
// (pid > 0) removes only that pid's own. Names of any other shape and
// directories are never touched.
func TestRemoveStale(t *testing.T) {
	dir := t.TempDir()
	const dead = "p-4194305-"
	own := "p-" + strconv.Itoa(os.Getpid()) + "-"
	parent := "p-" + strconv.Itoa(os.Getppid()) + "-door2"
	keep := []string{"p-7", "p-x-1", "q-4194305-1", "p--1"}
	write := func(names ...string) {
		for _, name := range names {
			if err := os.WriteFile(filepath.Join(dir, name), nil, 0o600); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(append([]string{dead + "3", dead + "door4", own + "1", own + "door2", parent}, keep...)...)
	if err := os.Mkdir(filepath.Join(dir, dead+"dir"), 0o700); err != nil {
		t.Fatal(err)
	}
	left := func() map[string]bool {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]bool{}
		for _, e := range entries {
			m[e.Name()] = true
		}
		return m
	}
	if n, err := RemoveStale(dir, "p-", 0); n != 4 || err != nil {
		t.Fatalf("start-up sweep removed %d, %v; want the 2 dead-pid and the 2 own-pid files", n, err)
	}
	got := left()
	if got[own+"1"] || got[own+"door2"] {
		t.Errorf("start-up sweep spared a file named with its own pid: %v", got)
	}
	for _, name := range append([]string{parent, dead + "dir"}, keep...) {
		if !got[name] {
			t.Errorf("start-up sweep removed %s", name)
		}
	}
	write(own + "3")
	if n, err := RemoveStale(dir, "p-", os.Getpid()); n != 1 || err != nil || left()[own+"3"] || !left()[parent] {
		t.Fatalf("shutdown sweep removed %d, %v; want only %s", n, err, own+"3")
	}
	if _, err := RemoveStale(dir, "", 0); err == nil {
		t.Error("RemoveStale with an empty prefix succeeded")
	}
}
