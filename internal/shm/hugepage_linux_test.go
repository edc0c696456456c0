package shm

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
)

// TestSegmentHugePages pins the huge-page rule of mapFile: both mappings of
// a 4 MiB segment, the creator's and an attacher's, are advised
// MADV_HUGEPAGE ("hg" in VmFlags), and a segment one page short of 2 MiB is
// not. Where the directory's file system gives an advised shared mapping
// huge folios (a raw mmap + madvise probe of the same directory tells), one
// side's writes and the other side's reads leave both mappings wholly
// PMD-mapped.
func TestSegmentHugePages(t *testing.T) {
	dir := t.TempDir()
	pmd, err := probePMD(dir)
	if err != nil {
		t.Skipf("no advised file mapping to probe in %s: %v", dir, err)
	}

	small, err := NewFile(dir, "seg-small", hugePage-4096)
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if flags := smapsOf(t, small.Bytes())["VmFlags"]; slices.Contains(strings.Fields(flags), "hg") {
		t.Errorf("a segment under 2 MiB is advised: VmFlags %q", flags)
	}

	const size = 2 * hugePage
	s, err := NewFile(dir, "seg-huge", size)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o, err := OpenFile(dir, "seg-huge")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	sides := map[string][]byte{"creator": s.Bytes(), "attacher": o.Bytes()}
	for side, b := range sides {
		if flags := smapsOf(t, b)["VmFlags"]; !slices.Contains(strings.Fields(flags), "hg") {
			t.Errorf("the %s's mapping is not advised: VmFlags %q", side, flags)
		}
	}

	for i := range s.Bytes() {
		s.Bytes()[i] = byte(i)
	}
	for i, c := range o.Bytes() {
		if c != byte(i) {
			t.Fatalf("attacher reads %d at %d, want %d", c, i, byte(i))
		}
	}
	if !pmd {
		t.Skipf("a raw advised mapping in %s gets no PMD mapping on this kernel and file system; PMD half skipped", dir)
	}
	for side, b := range sides {
		if kb := pmdKB(smapsOf(t, b)); kb != size>>10 {
			t.Errorf("the %s's mapping has %d kB PMD-mapped, want %d", side, kb, size>>10)
		}
	}
}

// probePMD maps a fresh 4 MiB file in dir without shm, advises it, writes it
// and reports whether any of it came out PMD-mapped. It fails where the
// kernel refuses the advice.
func probePMD(dir string) (bool, error) {
	f, err := os.CreateTemp(dir, "probe")
	if err != nil {
		return false, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	const size = 2 * hugePage
	if err := f.Truncate(size); err != nil {
		return false, err
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return false, err
	}
	defer syscall.Munmap(b)
	if err := syscall.Madvise(b, syscall.MADV_HUGEPAGE); err != nil {
		return false, err
	}
	for i := range b {
		b[i] = 1
	}
	m, err := readSmaps(b)
	return pmdKB(m) > 0, err
}

// pmdKB is a mapping's FilePmdMapped plus ShmemPmdMapped in kB: ext4 reports
// the one, tmpfs the other.
func pmdKB(m map[string]string) int {
	return kbOf(m["FilePmdMapped"]) + kbOf(m["ShmemPmdMapped"])
}

func smapsOf(t *testing.T, b []byte) map[string]string {
	t.Helper()
	m, err := readSmaps(b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readSmaps returns the /proc/self/smaps fields ("FilePmdMapped" → "4096 kB",
// "VmFlags" → "rd wr sh …") of the mapping that starts at b.
func readSmaps(b []byte) (map[string]string, error) {
	addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m map[string]string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		key, val, _ := strings.Cut(sc.Text(), " ")
		if !strings.HasSuffix(key, ":") { // a mapping's header: "lo-hi perms …"
			if m != nil {
				break
			}
			var lo uintptr
			if _, err := fmt.Sscanf(key, "%x-", &lo); err == nil && lo == addr {
				m = map[string]string{}
			}
		} else if m != nil {
			m[strings.TrimSuffix(key, ":")] = strings.TrimSpace(val)
		}
	}
	if m == nil {
		return nil, fmt.Errorf("no mapping starts at %#x in /proc/self/smaps", addr)
	}
	return m, nil
}

func kbOf(v string) int {
	n, _ := strconv.Atoi(strings.TrimSuffix(v, " kB"))
	return n
}
