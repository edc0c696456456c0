// Command gvmfed runs the federation router: a second placement level
// fronting N gvmd nodes. Clients dial gvmfed exactly as they would a
// single gvmd — same six-verb protocol, same retry behavior — and the
// router places each session on a backend node with the SAME placer gvmd
// uses across its GPU shards (two-level placement: the router picks the
// node holding the fewest sessions, the node picks the GPU the same way).
//
// The router polls every backend's load report (the STA verb: the node's
// shards folded into one binary node-level load record) to drive
// placement and failure detection. A node that drains (gvmd SIGUSR1) has
// its sessions live-migrated to the other nodes — extract (MIG),
// re-place, adopt (ADP) — without the clients noticing; a node that dies
// has its sessions re-created on survivors and the clients' jittered
// retry loops replay their cycles.
//
// Usage:
//
//	gvmfed -listen tcp://:7080 -backend tcp://nodeA:7070 -backend tcp://nodeB:7070
//	gvmfed -listen unix:///tmp/gvmfed.sock -backend-file /tmp/nodeA.addr -backend-file /tmp/nodeB.addr
//
// Clients connect with internal/ipc.DialOptions (or examples/multiprocess)
// using gvmfed's address; -addr-file publishes it for scripts, like
// gvmd's. gvmfed -h lists the flags.
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
	"time"

	"gpuvirt/internal/fed"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
)

// repeatedFlags collects repeated string flag values.
type repeatedFlags []string

func (l *repeatedFlags) String() string { return strings.Join(*l, ",") }
func (l *repeatedFlags) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	r, err := config(os.Args[1:])
	if err == nil {
		err = run(r)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("gvmfed: %v", err)
	}
}

// router is what gvmfed's command line sets: the router's configuration,
// plus the settings only the binary itself reads.
type router struct {
	fed         fed.Config
	listen      []string
	addrFile    string // bound addresses, then the metrics URL, one per line
	metricsAddr string // "" serves no metrics
}

// config parses gvmfed's command line, reads every -backend-file and makes
// every check that needs no listener, so a bad flag fails before anything
// starts.
func config(args []string) (router, error) {
	fs := flag.NewFlagSet("gvmfed", flag.ContinueOnError)
	var listen, backends, backendFiles repeatedFlags
	fs.Var(&listen, "listen", "transport address to serve clients on: tcp://host:port, unix:///path, inproc://name (repeatable; default tcp://127.0.0.1:7080)")
	fs.Var(&backends, "backend", "backend gvmd address, e.g. tcp://host:7070 (repeatable)")
	fs.Var(&backendFiles, "backend-file", "read one backend gvmd address from this -addr-file (first line; repeatable)")
	placement := fs.String("placement", node.LeastSessions, "node placement; "+node.LeastSessions+" is the one policy")
	poll := fs.Duration("poll", 200*time.Millisecond, "backend load-report poll interval")
	addrFile := fs.String("addr-file", "", "write the bound addresses to this file, one per line (useful with tcp://...:0)")
	metricsAddr := fs.String("metrics", "", "serve Prometheus text metrics at http://<addr>/metrics (fed_* series: nodes by state, placements, proxy latency, failovers, migrated bytes), and CPU profiles, traces and runtime/pprof profiles at /debug/pprof/")
	logLevel := fs.String("log-level", "", "structured routing/failover logging to stderr: debug|info|warn|error; empty disables")
	if err := fs.Parse(args); err != nil {
		return router{}, err
	}
	logger, err := slogByLevel(*logLevel)
	if err != nil {
		return router{}, err
	}
	for _, f := range backendFiles {
		addr, err := readAddrFile(f)
		if err != nil {
			return router{}, fmt.Errorf("-backend-file %s: %w", f, err)
		}
		backends = append(backends, addr)
	}
	if len(backends) == 0 {
		return router{}, errors.New("no backends (use -backend or -backend-file)")
	}
	if _, err := node.NewPlacer(*placement, "node"); err != nil {
		return router{}, err
	}
	if len(listen) == 0 {
		listen = repeatedFlags{"tcp://127.0.0.1:7080"}
	}
	for _, addr := range listen {
		if scheme, _ := transport.SplitAddr(addr); scheme == "ring" {
			return router{}, errors.New("ring:// cannot front remote nodes (the mapped segment lives with one daemon); use tcp:// or unix://")
		}
	}
	return router{
		fed: fed.Config{
			Backends:     backends,
			Placement:    *placement,
			PollInterval: *poll,
			Log:          logger,
		},
		listen:      listen,
		addrFile:    *addrFile,
		metricsAddr: *metricsAddr,
	}, nil
}

// run starts the router r describes, serves until SIGINT or SIGTERM and
// shuts it down: the router first, then the metrics listener, then
// whatever files a forced exit left behind.
func run(r router) error {
	removeSockets(r.listen) // a stale socket from an unclean exit blocks the bind
	r.fed.Metrics = metrics.NewRegistry()
	var metricsURL string
	if r.metricsAddr != "" {
		// Bind explicitly so ":0" resolves to a concrete port for the addr
		// file.
		mln, err := net.Listen("tcp", r.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listen %s: %w", r.metricsAddr, err)
		}
		defer mln.Close()
		metricsURL = fmt.Sprintf("http://%s/metrics", mln.Addr())
		go func() {
			if err := metrics.Serve(mln, r.fed.Metrics); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("gvmfed: metrics: %v", err)
			}
		}()
		log.Printf("gvmfed: metrics on %s", metricsURL)
	}

	rt, err := fed.New(r.fed)
	if err != nil {
		return err
	}
	if err := rt.Start(r.listen); err != nil {
		return err
	}
	addrs := rt.Addrs()
	log.Printf("gvmfed: routing %s across %d node(s): %s (poll=%v)",
		strings.Join(addrs, ", "), len(r.fed.Backends), strings.Join(r.fed.Backends, ", "), r.fed.PollInterval)
	if r.addrFile != "" {
		lines := append([]string{}, addrs...)
		if metricsURL != "" {
			lines = append(lines, metricsURL)
		}
		if err := os.WriteFile(r.addrFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			rt.Close()
			return fmt.Errorf("write %s: %w", r.addrFile, err)
		}
	}

	// Room for the signal that shuts down and a second that forces the exit.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("gvmfed: %v: shutting down", got)
	done := make(chan struct{})
	go func() {
		if err := rt.Close(); err != nil {
			log.Printf("gvmfed: close: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case got = <-sig:
		log.Printf("gvmfed: %v: forcing exit", got)
	}
	removeSockets(r.listen)
	if r.addrFile != "" {
		os.Remove(r.addrFile)
	}
	return nil
}

// removeSockets unlinks the socket file of every unix:// address.
func removeSockets(listen []string) {
	for _, addr := range listen {
		if scheme, target := transport.SplitAddr(addr); scheme == "unix" {
			os.Remove(target)
		}
	}
}

// readAddrFile pulls the daemon address out of a gvmd -addr-file: the
// first line (a later http:// line is the metrics URL).
func readAddrFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	line = strings.TrimSpace(line)
	if line == "" {
		return "", fmt.Errorf("empty addr file")
	}
	return line, nil
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
