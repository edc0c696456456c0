// Command gvmd runs the GPU Virtualization Manager as a real daemon: it
// owns a simulated Fermi GPU and serves the paper's six-verb protocol
// (REQ/SND/STR/STP/RCV/RLS) to separate OS processes over any mix of
// transports. Unix-domain sockets pair with file-backed shared-memory
// segments under /dev/shm as the data plane; TCP listeners default to
// carrying payloads inline over the wire, which is what makes remote
// (rCUDA-style) VGPU access work across machines. A ring:// listener is
// a unix socket whose sessions negotiate shared-memory
// submission/completion rings: after REQ every verb travels through the
// mmap'd segment, so a warm cycle performs zero syscalls (see DESIGN.md
// §3).
//
// Usage:
//
//	gvmd -listen unix:///tmp/gvmd.sock -parties 4 -functional
//	gvmd -listen tcp://:7070
//	gvmd -listen ring:///tmp/gvmd.sock -listen tcp://:7070
//
// Clients connect with internal/ipc.DialOptions using the same address syntax
// (see examples/multiprocess).
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/transport"
)

// listenFlags collects repeated -listen values.
type listenFlags []string

func (l *listenFlags) String() string { return strings.Join(*l, ",") }
func (l *listenFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var listen listenFlags
	flag.Var(&listen, "listen", "transport address to serve: unix:///path, tcp://host:port, ring:///path (repeatable; default unix:///tmp/gvmd.sock)")
	addrFile := flag.String("addr-file", "", "write the bound addresses to this file, one per line (useful with tcp://...:0)")
	parties := flag.Int("parties", 1, "STR barrier width (number of SPMD processes)")
	functional := flag.Bool("functional", true, "carry real data and compute real results")
	shmDir := flag.String("shm", "", "shared-memory directory (default /dev/shm)")
	archName := flag.String("arch", "c2070", "gpu architecture: c2070|c2050|gtx480|c1060")
	gpus := flag.Int("gpus", 1, "number of per-GPU manager shards the daemon runs (each behind its own owner lock, with its own STR barrier)")
	placement := flag.String("placement", "least-sessions", "session placement policy across shards: "+strings.Join(node.PolicyNames(), "|"))
	barrierTimeout := flag.Duration("barrier-timeout", 0, "flush partial STR batches after this long (0 = strict barrier)")
	execWorkers := flag.Int("exec-workers", 0, "functional kernel execution worker pool (0 = GOMAXPROCS, 1 = serial)")
	preemptRatio := flag.Float64("preempt-ratio", 0, "wave-boundary preemption threshold: a pending kernel preempts an active one iff weight > ratio*activeWeight (0 = default 1.0, negative disables)")
	maxSessionBytes := flag.Int64("max-session-bytes", 0, "reject REQ whose staging footprint (InBytes+OutBytes) exceeds this many bytes (0 = no per-session limit)")
	overcommit := flag.Float64("overcommit", 1.0, "admit sessions while reserved bytes stay within this factor of each GPU's memory; above 1.0 idle sessions are evicted to host snapshots on demand")
	memBytes := flag.Int64("mem", 0, "override each simulated GPU's device memory in bytes (0 = architecture default; shrink it to demo -overcommit eviction)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics at http://<addr>/metrics, and CPU profiles, traces and runtime/pprof profiles at /debug/pprof/ (e.g. localhost:9090)")
	faultInject := flag.String("fault-inject", "", "inject simulated XID faults on kernel launches, e.g. 'gpu=0,after=25,kind=hang' or 'rate=0.01,seed=7,kinds=hang|fatal' (faulted shards are evacuated by live session migration)")
	logLevel := flag.String("log-level", "error", "structured logging to stderr: debug (one line per verb), info (one line per flush), warn, error (simulation errors, bad preambles, frame read errors); empty disables")
	flag.Parse()

	reg := metrics.NewRegistry()

	logger, err := slogByLevel(*logLevel)
	if err != nil {
		log.Fatalf("gvmd: %v", err)
	}

	var metricsURL string
	if *metricsAddr != "" {
		// Bind explicitly so ":0" resolves to a concrete port that can go
		// into the addr file.
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("gvmd: metrics listen %s: %v", *metricsAddr, err)
		}
		metricsURL = fmt.Sprintf("http://%s/metrics", mln.Addr())
		go func() {
			if err := metrics.Serve(mln, reg); err != nil {
				log.Printf("gvmd: metrics: %v", err)
			}
		}()
		log.Printf("gvmd: metrics on %s", metricsURL)
	}

	arch, err := archByName(*archName)
	if err != nil {
		log.Fatalf("gvmd: %v", err)
	}
	var faultPlan *gpusim.FaultPlan
	if *faultInject != "" {
		faultPlan, err = gpusim.ParseFaultSpec(*faultInject)
		if err != nil {
			log.Fatalf("gvmd: -fault-inject: %v", err)
		}
	}
	if *memBytes < 0 {
		log.Fatalf("gvmd: -mem must be >= 0, got %d", *memBytes)
	}
	if *memBytes > 0 {
		arch.MemBytes = *memBytes
	}
	if len(listen) == 0 {
		listen = listenFlags{"unix:///tmp/gvmd.sock"}
	}

	// Clean up after a daemon that died without its signal handler: stale
	// unix sockets block the new bind, stale segments leak /dev/shm.
	for _, addr := range listen {
		if scheme, target := transport.SplitAddr(addr); scheme == "unix" || scheme == "ring" {
			os.Remove(target)
		}
	}
	// A segment names the pid that made it, so the sweep spares another live
	// daemon's on the same directory. It runs before the server makes any,
	// so it also takes those named with this pid: a killed predecessor's.
	if n, err := shm.RemoveStale(*shmDir, transport.SegPrefix, 0); err != nil {
		log.Printf("gvmd: stale segment cleanup: %v", err)
	} else if n > 0 {
		log.Printf("gvmd: removed %d stale shm segment(s)", n)
	}

	srv, err := ipc.NewServer(ipc.ServerConfig{
		Listen:          listen,
		Arch:            arch,
		Parties:         *parties,
		Functional:      *functional,
		ShmDir:          *shmDir,
		GPUs:            *gpus,
		Placement:       *placement,
		ExecWorkers:     *execWorkers,
		PreemptRatio:    *preemptRatio,
		MaxSessionBytes: *maxSessionBytes,
		Overcommit:      *overcommit,
		BarrierTimeout:  *barrierTimeout,
		FaultPlan:       faultPlan,
		Metrics:         reg,
		Slog:            logger,
	})
	if err != nil {
		log.Fatalf("gvmd: %v", err)
	}
	addrs := srv.Addrs()
	log.Printf("gvmd: serving %dx %s on %s (placement=%s parties=%d/shard functional=%v)",
		*gpus, arch.Name, strings.Join(addrs, ", "), srv.Node().Policy(), *parties, *functional)
	if *addrFile != "" {
		// Written only after every listener is bound, so a waiter that
		// sees the file can connect immediately. The metrics URL rides
		// along as an extra http:// line for scrapers to discover (head
		// -n1 for the address, grep ^http:// for the scrape URL).
		lines := append([]string{}, addrs...)
		if metricsURL != "" {
			lines = append(lines, metricsURL)
		}
		if err := os.WriteFile(*addrFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			srv.Close()
			log.Fatalf("gvmd: write %s: %v", *addrFile, err)
		}
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	// SIGUSR1 gracefully drains the WHOLE node: every shard stops taking
	// placements at once and the daemon's load report turns
	// unplaceable. Behind gvmfed that is the maintenance signal — the
	// router sees the next poll and live-migrates every session to the
	// other nodes; standalone, sessions keep serving in place until their
	// clients finish (no placements ping-pong between shards that are
	// both about to drain).
	var got os.Signal
	for got == nil || got == syscall.SIGUSR1 {
		got = <-sig
		if got != syscall.SIGUSR1 {
			break
		}
		log.Printf("gvmd: SIGUSR1: draining all %d gpu(s)", srv.Node().NumShards())
		srv.DrainAll()
	}
	log.Printf("gvmd: %v: shutting down", got)
	done := make(chan struct{})
	go func() {
		// Close releases every live session, so file-backed shm segments
		// are removed and unix listeners unlink their socket files.
		if err := srv.Close(); err != nil {
			log.Printf("gvmd: close: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case got = <-sig:
		log.Printf("gvmd: %v: forcing exit", got)
	}
	// Belt and braces: sockets are normally unlinked by listener close and
	// segments by session teardown, but a forced exit must not leave
	// residue for the next run to trip over.
	for _, addr := range listen {
		if scheme, target := transport.SplitAddr(addr); scheme == "unix" || scheme == "ring" {
			os.Remove(target)
		}
	}
	if *addrFile != "" {
		os.Remove(*addrFile)
	}
	shm.RemoveStale(*shmDir, transport.SegPrefix, os.Getpid())
}

func slogByLevel(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

func archByName(name string) (fermi.Arch, error) {
	switch name {
	case "c2070":
		return fermi.TeslaC2070(), nil
	case "c2050":
		return fermi.TeslaC2050(), nil
	case "gtx480":
		return fermi.GeForceGTX480(), nil
	case "c1060":
		return fermi.TeslaC1060(), nil
	default:
		return fermi.Arch{}, fmt.Errorf("unknown architecture %q", name)
	}
}
