package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of 1024 CPUs.
type cpuMask [16]uint64

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// lastCPU is the highest-numbered CPU in m, -1 when m is empty.
func (m cpuMask) lastCPU() int {
	cpu := -1
	for i, w := range m {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				cpu = 64*i + b
			}
		}
	}
	return cpu
}

// setAllThreads gives every thread of this process the mask m. A thread
// the runtime creates meanwhile inherits its creator's mask, old or new,
// so passes repeat until one finds nothing left to change.
func setAllThreads(m cpuMask) error {
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		changed := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			cur, err := getAffinity(tid)
			if errors.Is(err, syscall.ESRCH) {
				continue // the thread has exited since the listing
			}
			if err != nil {
				return err
			}
			if cur != m {
				if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
					return err
				}
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
}

// confine restricts this process to one CPU — the highest-numbered one
// it is allowed, leaving CPU 0 and its interrupts to the rest of the
// machine — and sizes its Go runtime for one CPU. Daemons spawned while
// confined inherit the mask and size their own runtimes from it. The
// returned function undoes both; calling it again changes nothing.
func confine() (release func() error, err error) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	cpu := all.lastCPU()
	if cpu < 0 {
		return nil, errors.New("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAllThreads(one); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return func() error {
		runtime.GOMAXPROCS(procs)
		return setAllThreads(all)
	}, nil
}
