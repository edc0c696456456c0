package gpusim

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"gpuvirt/internal/sim"
)

// TestBackingRule pins newBacking through Malloc: every allocation is zeroed
// with len == cap == its rounded size; on Linux one of 2 MiB or more starts
// on a 2 MiB boundary and, unless THP is off, its range is THP-eligible; and
// a swap hands the same backing out and back with its bytes intact.
func TestBackingRule(t *testing.T) {
	const huge = 2 << 20
	for _, size := range []int64{64 << 10, huge - 256, huge, 2 * huge, 2*huge + 256<<10} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			env, dev := newTestDevice(t, true)
			env.Go(func(p *sim.Proc) {
				ctx := dev.CreateContext(p)
				ptr, err := ctx.Malloc(size)
				if err != nil {
					t.Error(err)
					return
				}
				i, _ := dev.find(ptr)
				b := dev.bufs[i].data
				if want := dev.alloc.RoundUp(size); int64(len(b)) != want || cap(b) != len(b) {
					t.Errorf("len %d cap %d, want both %d", len(b), cap(b), want)
				}
				if bytes.IndexFunc(b, func(r rune) bool { return r != 0 }) >= 0 {
					t.Error("fresh backing is not zeroed")
				}
				addr := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
				if size >= huge && runtime.GOOS == "linux" {
					if addr%huge != 0 {
						t.Errorf("backing at %#x is not 2 MiB-aligned", addr)
					}
					if eligible, ok := thpEligible(t, addr); ok && !eligible {
						t.Errorf("backing at %#x is not THP-eligible", addr)
					}
				}
				for j := range b {
					b[j] = byte(j*7 + 1)
				}
				want := bytes.Clone(b)
				out, n, err := ctx.SwapOut(p, ptr)
				if err != nil || n != int64(len(b)) || unsafe.SliceData(out) != unsafe.SliceData(b) {
					t.Errorf("SwapOut = %d bytes at %p, %v; want the placed backing", n, unsafe.SliceData(out), err)
					return
				}
				if err := ctx.SwapIn(p, ptr, out); err != nil {
					t.Error(err)
					return
				}
				i, _ = dev.find(ptr)
				if back := dev.bufs[i].data; unsafe.SliceData(back) != unsafe.SliceData(b) || !bytes.Equal(back, want) {
					t.Error("SwapIn did not put the same backing back intact")
				}
			})
			run(t, env)
		})
	}
}

// thpEligible reads /proc/self/smaps for the mapping holding addr: its
// THPeligible flag, and ok == false where THP is set to never or the kernel
// does not report the flag.
func thpEligible(t *testing.T, addr uintptr) (eligible, ok bool) {
	t.Helper()
	if mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err != nil || bytes.Contains(mode, []byte("[never]")) {
		return false, false
	}
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		key, val, _ := strings.Cut(sc.Text(), " ")
		if !strings.HasSuffix(key, ":") { // a mapping's header: "lo-hi perms …"
			var lo, hi uintptr
			_, err := fmt.Sscanf(key, "%x-%x", &lo, &hi)
			in = err == nil && lo <= addr && addr < hi
		} else if key == "THPeligible:" && in {
			return strings.TrimSpace(val) == "1", true
		}
	}
	return false, false
}
