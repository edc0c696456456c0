// Command gvmfed runs the federation router: a second placement level
// fronting N gvmd nodes. Clients dial gvmfed exactly as they would a
// single gvmd — same six-verb protocol, same retry behavior — and the
// router places each session on a backend node with the SAME placement
// policies gvmd uses across its GPU shards (two-level placement: the
// router picks the node, the node's policy picks the GPU).
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
// gvmd's.
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
	var listen, backends, backendFiles repeatedFlags
	flag.Var(&listen, "listen", "transport address to serve clients on: tcp://host:port, unix:///path, inproc://name (repeatable; default tcp://127.0.0.1:7080)")
	flag.Var(&backends, "backend", "backend gvmd address, e.g. tcp://host:7070 (repeatable)")
	flag.Var(&backendFiles, "backend-file", "read one backend gvmd address from this -addr-file (first line; repeatable)")
	placement := flag.String("placement", "least-sessions", "node placement policy: "+strings.Join(node.PolicyNames(), "|"))
	poll := flag.Duration("poll", 200*time.Millisecond, "backend load-report poll interval")
	addrFile := flag.String("addr-file", "", "write the bound addresses to this file, one per line (useful with tcp://...:0)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus text metrics at http://<addr>/metrics (fed_* series: nodes by state, placements, proxy latency, failovers, migrated bytes), and CPU profiles, traces and runtime/pprof profiles at /debug/pprof/")
	logLevel := flag.String("log-level", "", "structured routing/failover logging to stderr: debug|info|warn|error; empty disables")
	flag.Parse()

	logger, err := slogByLevel(*logLevel)
	if err != nil {
		log.Fatalf("gvmfed: %v", err)
	}
	for _, f := range backendFiles {
		addr, err := readAddrFile(f)
		if err != nil {
			log.Fatalf("gvmfed: -backend-file %s: %v", f, err)
		}
		backends = append(backends, addr)
	}
	if len(backends) == 0 {
		log.Fatalf("gvmfed: no backends (use -backend or -backend-file)")
	}
	if len(listen) == 0 {
		listen = repeatedFlags{"tcp://127.0.0.1:7080"}
	}
	for _, addr := range listen {
		if scheme, target := transport.SplitAddr(addr); scheme == "unix" {
			os.Remove(target) // stale socket from an unclean exit blocks the bind
		} else if scheme == "ring" {
			log.Fatalf("gvmfed: ring:// cannot front remote nodes (the mapped segment lives with one daemon); use tcp:// or unix://")
		}
	}

	reg := metrics.NewRegistry()
	var metricsURL string
	if *metricsAddr != "" {
		// Bind explicitly so ":0" resolves to a concrete port for the addr
		// file.
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("gvmfed: metrics listen %s: %v", *metricsAddr, err)
		}
		metricsURL = fmt.Sprintf("http://%s/metrics", mln.Addr())
		go func() {
			if err := metrics.Serve(mln, reg); err != nil {
				log.Printf("gvmfed: metrics: %v", err)
			}
		}()
		log.Printf("gvmfed: metrics on %s", metricsURL)
	}

	router, err := fed.New(fed.Config{
		Backends:     backends,
		Placement:    *placement,
		PollInterval: *poll,
		Metrics:      reg,
		Log:          logger,
	})
	if err != nil {
		log.Fatalf("gvmfed: %v", err)
	}
	if err := router.Start(listen); err != nil {
		log.Fatalf("gvmfed: %v", err)
	}
	addrs := router.Addrs()
	log.Printf("gvmfed: routing %s across %d node(s): %s (placement=%s poll=%v)",
		strings.Join(addrs, ", "), len(backends), strings.Join(backends, ", "), router.Placement(), *poll)
	if *addrFile != "" {
		lines := append([]string{}, addrs...)
		if metricsURL != "" {
			lines = append(lines, metricsURL)
		}
		if err := os.WriteFile(*addrFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			router.Close()
			log.Fatalf("gvmfed: write %s: %v", *addrFile, err)
		}
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	log.Printf("gvmfed: %v: shutting down", got)
	done := make(chan struct{})
	go func() {
		if err := router.Close(); err != nil {
			log.Printf("gvmfed: close: %v", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case got = <-sig:
		log.Printf("gvmfed: %v: forcing exit", got)
	}
	for _, addr := range listen {
		if scheme, target := transport.SplitAddr(addr); scheme == "unix" {
			os.Remove(target)
		}
	}
	if *addrFile != "" {
		os.Remove(*addrFile)
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
