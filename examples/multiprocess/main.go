// Multiprocess: real OS processes sharing the GPU through the gvmd
// daemon.
//
// By default the parent process starts an in-process daemon on a
// Unix-domain socket (with /dev/shm segments as the data plane) and an
// STR barrier spanning all workers, then spawns itself N times with
// -role=worker. Each worker process dials the daemon, opens a VGPU
// session for a vector-add task, runs one full protocol cycle with real
// data and verifies the results. This is the paper's deployment shape:
// one GVM run-time per node, one SPMD process per core.
//
// With -connect the parent skips the in-process daemon and points the
// workers at an already-running gvmd instead — any transport the daemon
// listens on works, e.g. -connect tcp://127.0.0.1:7070 for remote-style
// access with payloads inline on the wire (start that daemon with
// -parties matching -workers).
//
// Run with: go run ./examples/multiprocess
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/workloads"
)

const n = 1 << 16 // floats per worker

func main() {
	role := flag.String("role", "parent", "internal: parent|worker")
	addr := flag.String("addr", "", "internal: daemon address for workers")
	rank := flag.Int("rank", 0, "internal: worker rank")
	workers := flag.Int("workers", 4, "number of SPMD worker processes")
	connect := flag.String("connect", "", "dial an external gvmd at this address (unix:///path or tcp://host:port) instead of starting one in-process")
	timeout := flag.Duration("timeout", 0, "per-request I/O timeout on client round trips (0 = none)")
	duration := flag.Duration("duration", 0, "keep re-running full verified cycles until this much wall time has elapsed (0 = one cycle); spans daemon restarts for failover drills")
	weight := flag.Int("weight", 0, "this worker's weighted-fair SM share (0 = derive from -priority)")
	priority := flag.Int("priority", 0, "this worker's session priority (eviction order and default weight class)")
	weights := flag.String("weights", "", "comma-separated per-rank weights, e.g. 1,1,4,8 (padded with the last value)")
	priorities := flag.String("priorities", "", "comma-separated per-rank priorities (padded with the last value)")
	flag.Parse()

	switch *role {
	case "parent":
		parent(*workers, *connect, *timeout, *duration, perRank(*weights, *workers), perRank(*priorities, *workers))
	case "worker":
		if err := worker(*addr, *rank, *timeout, *duration, *weight, *priority); err != nil {
			log.Fatalf("worker %d: %v", *rank, err)
		}
	default:
		log.Fatalf("unknown role %q", *role)
	}
}

// perRank parses a comma-separated int list into one value per rank,
// padding short lists with their last entry (so -weights 1,8 over four
// workers means 1,8,8,8) and zeros when the flag is unset.
func perRank(list string, n int) []int {
	vals := make([]int, n)
	if list == "" {
		return vals
	}
	parts := strings.Split(list, ",")
	last := 0
	for i := 0; i < n; i++ {
		if i < len(parts) {
			v, err := strconv.Atoi(strings.TrimSpace(parts[i]))
			if err != nil {
				log.Fatalf("bad per-rank list %q: %v", list, err)
			}
			last = v
		}
		vals[i] = last
	}
	return vals
}

func parent(workers int, connect string, timeout, duration time.Duration, weights, priorities []int) {
	addr := connect
	shmDir := os.Getenv("GVMD_SHM_DIR")
	if connect == "" {
		dir, err := os.MkdirTemp("", "gvmd-example")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		shmDir = dir

		srv, err := ipc.NewServer(ipc.ServerConfig{
			Listen:     []string{"unix://" + filepath.Join(dir, "gvmd.sock")},
			Parties:    workers, // barrier: all workers' streams flush together
			Functional: true,
			ShmDir:     dir,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		addr = srv.Addr()
	}
	fmt.Printf("parent: daemon on %s, spawning %d worker processes\n", addr, workers)

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	cmds := make([]*exec.Cmd, workers)
	for i := range cmds {
		cmds[i] = exec.Command(self,
			"-role=worker", "-addr="+addr, fmt.Sprintf("-rank=%d", i),
			fmt.Sprintf("-timeout=%s", timeout),
			fmt.Sprintf("-duration=%s", duration),
			fmt.Sprintf("-weight=%d", weights[i]),
			fmt.Sprintf("-priority=%d", priorities[i]))
		cmds[i].Stdout = os.Stdout
		cmds[i].Stderr = os.Stderr
		cmds[i].Env = append(os.Environ(), "GVMD_SHM_DIR="+shmDir)
		if err := cmds[i].Start(); err != nil {
			log.Fatal(err)
		}
	}
	failed := false
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			log.Printf("worker %d failed: %v", i, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("parent: all workers verified their results through the daemon")
	fmt.Println("parent: \"device clock\" is the daemon's virtual time — device DMA and kernels plus one host copy per SND/RCV, the same on every transport; the socket or ring itself costs wall-clock only")
}

func worker(addr string, rank int, timeout, duration time.Duration, weight, priority int) error {
	client, err := ipc.DialOptions(addr, ipc.Options{
		ShmDir:  os.Getenv("GVMD_SHM_DIR"),
		Timeout: timeout,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	start := time.Now()
	sess, err := client.RequestOptions(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, rank,
		ipc.SessionOptions{Weight: weight, Priority: priority})
	if err != nil {
		return err
	}
	in := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		in[i] = float32(i)
		in[n+i] = float32(rank + 1)
	}
	out := make([]byte, n*4)
	cycles := 0
	for {
		if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
			return fmt.Errorf("cycle %d: %w", cycles, err)
		}
		res := cuda.Float32s(byteMem(out), 0, n)
		for i := 0; i < n; i++ {
			if res[i] != float32(i)+float32(rank+1) {
				return fmt.Errorf("cycle %d: bad result at %d: %g", cycles, i, res[i])
			}
		}
		cycles++
		if time.Since(start) >= duration {
			break
		}
	}
	virtMS := sess.VirtualMS
	if err := sess.Release(); err != nil {
		return err
	}
	fmt.Printf("worker %d (pid %d): %d elements verified over %s plane in %d cycle(s), turnaround %.1f ms wall, device clock %.2f ms\n",
		rank, os.Getpid(), n, sess.Plane(), cycles, time.Since(start).Seconds()*1e3, virtMS)
	return nil
}

type byteMem []byte

func (b byteMem) Bytes(p cuda.DevPtr, n int64) []byte { return b[p : int64(p)+n] }
