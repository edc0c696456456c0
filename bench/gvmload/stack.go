package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuvirt/internal/fed"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/metrics"
)

// harness is where a run finds its binaries and keeps its files.
type harness struct {
	// bin holds the gvmd and gvmfed binaries. Empty runs the daemons
	// in-process (the schema test and the traced run's no-process-boundary
	// phases) instead of as child processes.
	bin string
	// work is the directory each stack makes its private temp dir in.
	// Relative, so unix socket paths stay far below the 108-byte limit
	// wherever the checkout lives.
	work string
	// warm is the untimed warm-up before a timed phase, starts the number
	// of timed cold starts in a run: warmUp and coldStarts, except in the
	// schema test.
	warm   time.Duration
	starts int
	// out is where the traced run writes spans-<workload>.json.
	out string
}

// daemon is one gvmd or gvmfed, either a child process or in-process.
type daemon struct {
	role string // "gvmd" or "gvmfed"
	addr string // the address clients (or the router) dial
	shm  string // gvmd's -shm directory

	// Child process.
	cmd      *exec.Cmd
	done     chan struct{} // closed once cmd.Wait has returned
	addrFile string        // the child's -addr-file
	logFile  string        // the child's stderr
	http     string        // base URL serving /metrics and /debug/pprof

	// In-process.
	reg   *metrics.Registry
	close func() error
}

// stack is one running topology: every daemon of a workload plus the
// private directory holding its sockets, addr files, shm segments and
// logs.
type stack struct {
	dir     string
	daemons []*daemon
	front   *daemon // what clients dial: the router, or the only gvmd

	stopping atomic.Bool
	deadOnce sync.Once
	dead     chan struct{} // closed when a child exits without being asked
}

// live is every stack with running children, so that each exit path —
// signal, watchdog, fatal error — can kill them and remove their files.
var (
	liveMu sync.Mutex
	live   = map[*stack]struct{}{}
)

var inprocSeq atomic.Int64

// start brings up sp's topology and returns once every daemon accepts
// connections. functional=false (in-process only) runs timing-only
// daemons that carry no payload bytes.
func (h harness) start(sp spec, functional bool) (*stack, error) {
	if err := os.MkdirAll(h.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(h.work, "run-")
	if err != nil {
		return nil, err
	}
	st := &stack{dir: dir, dead: make(chan struct{})}
	liveMu.Lock()
	live[st] = struct{}{}
	liveMu.Unlock()

	if err := h.bringUp(st, sp, functional); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (h harness) bringUp(st *stack, sp spec, functional bool) error {
	for i := 0; i < sp.nodes; i++ {
		d := &daemon{role: "gvmd", shm: filepath.Join(st.dir, "shm"+strconv.Itoa(i))}
		if err := os.Mkdir(d.shm, 0o755); err != nil {
			return err
		}
		st.daemons = append(st.daemons, d)
	}
	// Launch every gvmd before waiting for any, as an operator's script
	// would.
	for i, d := range st.daemons {
		if err := h.launchGvmd(st, d, sp, i, functional); err != nil {
			return err
		}
	}
	for _, d := range st.daemons {
		if err := st.await(d); err != nil {
			return err
		}
	}
	st.front = st.daemons[0]
	if sp.router() {
		r := &daemon{role: "gvmfed"}
		if err := h.launchRouter(st, r); err != nil {
			return err
		}
		st.daemons = append(st.daemons, r)
		if err := st.await(r); err != nil {
			return err
		}
		st.front = r
	}
	return nil
}

func (h harness) launchGvmd(st *stack, d *daemon, sp spec, i int, functional bool) error {
	listen := "tcp://127.0.0.1:0"
	if sp.scheme != "tcp" {
		listen = sp.scheme + "://" + filepath.Join(st.dir, "d"+strconv.Itoa(i)+".sock")
	}
	if h.bin != "" {
		args := []string{"-listen", listen, "-shm", d.shm, "-functional",
			"-placement", "least-sessions", "-metrics", "127.0.0.1:0"}
		if sp.mem > 0 {
			args = append(args, "-mem", strconv.FormatInt(sp.mem, 10))
		}
		if sp.overcommit > 0 {
			args = append(args, "-overcommit", strconv.FormatFloat(sp.overcommit, 'g', -1, 64))
		}
		return st.spawn(d, filepath.Join(h.bin, "gvmd"), "d"+strconv.Itoa(i), args)
	}
	if sp.scheme != "ring" {
		// No process boundary, so no socket either; ring keeps its
		// listener because the rings only exist behind one.
		listen = fmt.Sprintf("inproc://gvmload-%d", inprocSeq.Add(1))
	}
	arch := fermi.TeslaC2070()
	if sp.mem > 0 {
		arch.MemBytes = sp.mem
	}
	d.reg = metrics.NewRegistry()
	srv, err := ipc.NewServer(ipc.ServerConfig{
		Listen:     []string{listen},
		Arch:       arch,
		Functional: functional,
		ShmDir:     d.shm,
		Placement:  "least-sessions",
		Overcommit: sp.overcommit,
		Metrics:    d.reg,
	})
	if err != nil {
		return err
	}
	d.addr, d.close = srv.Addr(), srv.Close
	return nil
}

func (h harness) launchRouter(st *stack, r *daemon) error {
	if h.bin != "" {
		args := []string{"-listen", "tcp://127.0.0.1:0", "-placement", "least-sessions", "-metrics", "127.0.0.1:0"}
		for i := range st.daemons {
			args = append(args, "-backend-file", st.daemons[i].addrFile)
		}
		return st.spawn(r, filepath.Join(h.bin, "gvmfed"), "fed", args)
	}
	var backends []string
	for _, d := range st.daemons {
		backends = append(backends, d.addr)
	}
	r.reg = metrics.NewRegistry()
	router, err := fed.New(fed.Config{Backends: backends, Placement: "least-sessions", Metrics: r.reg})
	if err != nil {
		return err
	}
	if err := router.Start([]string{fmt.Sprintf("inproc://gvmload-%d", inprocSeq.Add(1))}); err != nil {
		return err
	}
	r.addr, r.close = router.Addr(), router.Close
	return nil
}

// spawn starts one child in its own process group with stderr in the
// stack's directory, and a goroutine that reaps it.
func (st *stack) spawn(d *daemon, bin, name string, args []string) error {
	d.addrFile = filepath.Join(st.dir, name+".addr")
	d.logFile = filepath.Join(st.dir, name+".log")
	log, err := os.Create(d.logFile)
	if err != nil {
		return err
	}
	defer log.Close()
	d.cmd = exec.Command(bin, append(args, "-addr-file", d.addrFile)...)
	d.cmd.Stderr = log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", bin, err)
	}
	d.done = make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // the exit status is read from ProcessState
		if !st.stopping.Load() {
			st.deadOnce.Do(func() { close(st.dead) })
		}
		close(d.done)
	}()
	return nil
}

// await blocks until a child has published its addr file (written only
// after every listener is bound), and records the addresses in it.
func (st *stack) await(d *daemon) error {
	if d.cmd == nil {
		return nil
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, err := os.ReadFile(d.addrFile)
		if err == nil && len(b) > 0 && b[len(b)-1] == '\n' {
			for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
				switch {
				case d.addr == "":
					d.addr = line
				case strings.HasPrefix(line, "http://"):
					d.http = strings.TrimSuffix(line, "/metrics")
				}
			}
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up: %v\n%s", d.role, d.cmd.ProcessState, st.logTail(d))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not publish %s within 10s", d.role, d.addrFile)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (st *stack) logTail(d *daemon) string {
	b, _ := os.ReadFile(d.logFile)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(bytes.TrimSpace(b))
}

// stop shuts every daemon down (router first, so no backend sees its
// peer vanish), reaps the children, removes the directory and returns
// the children's summed peak RSS in bytes. The peak is VmHWM, read while
// the child still runs. ru_maxrss would not do: a child of os/exec is
// born sharing this process's memory, and the kernel carries that
// moment's high-water mark across the exec into ru_maxrss, which then
// reads max(the daemon's peak, gvmload's RSS when it spawned it).
func (st *stack) stop() (rssBytes int64, err error) {
	st.stopping.Store(true)
	for i := len(st.daemons) - 1; i >= 0; i-- {
		d := st.daemons[i]
		switch {
		case d.close != nil:
			err = errors.Join(err, d.close())
		case d.done != nil:
			hwm, hwmErr := peakRSS(d.cmd.Process.Pid)
			select {
			case <-d.done: // it died earlier, which the phase has reported
			default:
				err = errors.Join(err, hwmErr)
			}
			rssBytes += hwm
			_ = d.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-d.done:
			case <-time.After(5 * time.Second):
				err = errors.Join(err, fmt.Errorf("%s ignored SIGTERM for 5s", d.role))
				_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
				<-d.done
			}
		}
	}
	st.remove()
	return rssBytes, err
}

// peakRSS is a running process's VmHWM in bytes: the most memory it has
// had resident since its exec.
func peakRSS(pid int) (int64, error) {
	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	// "VmHWM:\t   72492 kB"
	if _, rest, ok := strings.Cut(string(status), "\nVmHWM:"); ok {
		if f := strings.Fields(rest); len(f) > 1 && f[1] == "kB" {
			if kb, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				return kb * 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM in kB", pid)
}

func (st *stack) remove() {
	os.RemoveAll(st.dir)
	liveMu.Lock()
	delete(live, st)
	liveMu.Unlock()
}

// killAll is the last-resort cleanup for exit paths that cannot unwind:
// every child's process group dies and every temp dir goes.
func killAll() {
	liveMu.Lock()
	stacks := make([]*stack, 0, len(live))
	for st := range live {
		stacks = append(stacks, st)
	}
	liveMu.Unlock()
	for _, st := range stacks {
		st.stopping.Store(true)
		for _, d := range st.daemons {
			if d.done != nil {
				_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
				<-d.done
			}
		}
		st.remove()
	}
}
