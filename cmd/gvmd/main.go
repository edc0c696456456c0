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
//	gvmd -listen ring:///tmp/gvmd.sock -mem 1576960 -overcommit 4
//
// Every shard models the paper's Tesla C2070 (-mem overrides its memory),
// and a new session goes to the shard holding the fewest sessions. gvmd -h
// lists the flags. Clients connect with internal/ipc.DialOptions using the same
// address syntax (see examples/multiprocess).
package main

import (
	"errors"
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
	d, err := config(os.Args[1:])
	if err == nil {
		err = run(d)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("gvmd: %v", err)
	}
}

// daemon is what gvmd's command line sets: the server's configuration,
// plus the settings only the binary itself reads.
type daemon struct {
	srv         ipc.ServerConfig
	addrFile    string // bound addresses, then the metrics URL, one per line
	metricsAddr string // "" serves no metrics
}

// config parses gvmd's command line and makes every check that needs no
// listener, segment or signal, so a bad flag fails before anything starts.
func config(args []string) (daemon, error) {
	fs := flag.NewFlagSet("gvmd", flag.ContinueOnError)
	var listen listenFlags
	fs.Var(&listen, "listen", "transport address to serve: unix:///path, tcp://host:port, ring:///path (repeatable; default unix:///tmp/gvmd.sock)")
	addrFile := fs.String("addr-file", "", "write the bound addresses to this file, one per line (useful with tcp://...:0)")
	parties := fs.Int("parties", 1, "STR barrier width (number of SPMD processes)")
	functional := fs.Bool("functional", true, "carry real data and compute real results")
	shmDir := fs.String("shm", "", "shared-memory directory (default /dev/shm)")
	gpus := fs.Int("gpus", 1, "number of per-GPU manager shards the daemon runs (each behind its own owner lock, with its own STR barrier)")
	placement := fs.String("placement", node.LeastSessions, "session placement across shards; "+node.LeastSessions+" is the one policy")
	barrierTimeout := fs.Duration("barrier-timeout", 0, "flush partial STR batches after this long (0 = strict barrier)")
	maxSessionBytes := fs.Int64("max-session-bytes", 0, "reject REQ whose staging footprint (InBytes+OutBytes) exceeds this many bytes (0 = no per-session limit)")
	overcommit := fs.Float64("overcommit", 1.0, "admit sessions while reserved bytes stay within this factor of each GPU's memory; above 1.0 idle sessions are evicted to host snapshots on demand")
	memBytes := fs.Int64("mem", 0, "override each simulated C2070's device memory in bytes (0 = its 6 GB; shrink it to demo -overcommit eviction)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus text metrics at http://<addr>/metrics, and CPU profiles, traces and runtime/pprof profiles at /debug/pprof/ (e.g. localhost:9090)")
	faultInject := fs.String("fault-inject", "", "inject simulated XID faults on kernel launches, e.g. 'gpu=0,after=25,kind=hang' or 'rate=0.01,seed=7,kinds=hang|fatal' (faulted shards are evacuated by live session migration)")
	logLevel := fs.String("log-level", "error", "structured logging to stderr: debug (one line per verb), info (one line per flush), warn, error (simulation errors, bad preambles, frame read errors); empty disables")
	if err := fs.Parse(args); err != nil {
		return daemon{}, err
	}
	if _, err := node.NewPlacer(*placement, "GPU"); err != nil {
		return daemon{}, err
	}
	logger, err := slogByLevel(*logLevel)
	if err != nil {
		return daemon{}, err
	}
	var faultPlan *gpusim.FaultPlan
	if *faultInject != "" {
		if faultPlan, err = gpusim.ParseFaultSpec(*faultInject); err != nil {
			return daemon{}, fmt.Errorf("-fault-inject: %w", err)
		}
	}
	if *memBytes < 0 {
		return daemon{}, fmt.Errorf("-mem must be >= 0, got %d", *memBytes)
	}
	arch := fermi.TeslaC2070()
	if *memBytes > 0 {
		arch.MemBytes = *memBytes
	}
	if len(listen) == 0 {
		listen = listenFlags{"unix:///tmp/gvmd.sock"}
	}
	return daemon{
		srv: ipc.ServerConfig{
			Listen:          listen,
			Arch:            arch,
			Parties:         *parties,
			Functional:      *functional,
			ShmDir:          *shmDir,
			GPUs:            *gpus,
			Placement:       *placement,
			MaxSessionBytes: *maxSessionBytes,
			Overcommit:      *overcommit,
			BarrierTimeout:  *barrierTimeout,
			FaultPlan:       faultPlan,
			Slog:            logger,
		},
		addrFile:    *addrFile,
		metricsAddr: *metricsAddr,
	}, nil
}

// run starts the daemon d describes, serves until SIGINT or SIGTERM
// (SIGUSR1 drains), and shuts it down: the server first, then the metrics
// listener, so a scrape can come in until the end, then whatever files a
// forced exit left behind.
func run(d daemon) error {
	d.srv.Metrics = metrics.NewRegistry()
	var metricsURL string
	if d.metricsAddr != "" {
		// Bind explicitly so ":0" resolves to a concrete port that can go
		// into the addr file.
		mln, err := net.Listen("tcp", d.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", d.metricsAddr, err)
		}
		defer mln.Close()
		metricsURL = fmt.Sprintf("http://%s/metrics", mln.Addr())
		go func() {
			if err := metrics.Serve(mln, d.srv.Metrics); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("gvmd: metrics: %v", err)
			}
		}()
		log.Printf("gvmd: metrics on %s", metricsURL)
	}

	// Clean up after a daemon that died without its signal handler: stale
	// unix sockets block the new bind, stale segments leak /dev/shm.
	removeSockets(d.srv.Listen)
	// A segment names the pid that made it, so the sweep spares another live
	// daemon's on the same directory. It runs before the server makes any,
	// so it also takes those named with this pid: a killed predecessor's.
	if n, err := shm.RemoveStale(d.srv.ShmDir, transport.SegPrefix, 0); err != nil {
		log.Printf("gvmd: stale segment cleanup: %v", err)
	} else if n > 0 {
		log.Printf("gvmd: removed %d stale shm segment(s)", n)
	}

	srv, err := ipc.NewServer(d.srv)
	if err != nil {
		return err
	}
	addrs := srv.Addrs()
	log.Printf("gvmd: serving %dx %s on %s (parties=%d/shard functional=%v)",
		srv.Node().NumShards(), d.srv.Arch.Name, strings.Join(addrs, ", "), d.srv.Parties, d.srv.Functional)
	if d.addrFile != "" {
		// Written only after every listener is bound, so a waiter that
		// sees the file can connect immediately. The metrics URL rides
		// along as an extra http:// line for scrapers to discover (head
		// -n1 for the address, grep ^http:// for the scrape URL).
		lines := append([]string{}, addrs...)
		if metricsURL != "" {
			lines = append(lines, metricsURL)
		}
		if err := os.WriteFile(d.addrFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			srv.Close()
			return fmt.Errorf("write %s: %w", d.addrFile, err)
		}
	}

	// Room for the signal that shuts down and a second that forces the exit.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	// SIGUSR1 gracefully drains the WHOLE node: every shard stops taking
	// placements at once and the daemon's load report turns
	// unplaceable. Behind gvmfed that is the maintenance signal — the
	// router sees the next poll and live-migrates every session to the
	// other nodes; standalone, sessions keep serving in place until their
	// clients finish (no placements ping-pong between shards that are
	// both about to drain).
	got := <-sig
	for got == syscall.SIGUSR1 {
		log.Printf("gvmd: SIGUSR1: draining all %d gpu(s)", srv.Node().NumShards())
		srv.DrainAll()
		got = <-sig
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
	removeSockets(d.srv.Listen)
	if d.addrFile != "" {
		os.Remove(d.addrFile)
	}
	shm.RemoveStale(d.srv.ShmDir, transport.SegPrefix, os.Getpid())
	return nil
}

// removeSockets unlinks the socket file of every unix:// and ring://
// address.
func removeSockets(listen []string) {
	for _, addr := range listen {
		if scheme, target := transport.SplitAddr(addr); scheme == "unix" || scheme == "ring" {
			os.Remove(target)
		}
	}
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
