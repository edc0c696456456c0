package ipc

import (
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gpuvirt/internal/metrics"
	"gpuvirt/internal/workloads"
)

var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?\d+$`)

// scrapeMetrics GETs /metrics from metrics.Serve on a loopback listener,
// lints every sample line against the Prometheus text format, and returns
// the samples as a series -> value map keyed exactly as rendered (labels
// included).
func scrapeMetrics(t *testing.T, reg *metrics.Registry) map[string]int64 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go metrics.Serve(ln, reg)
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Fatalf("malformed Prometheus sample line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestMetricsEndpoint runs pipelined traffic through a daemon and then
// scrapes its registry over HTTP: the per-verb counters and histogram
// counts must be consistent with the client's own round-trip accounting.
func TestMetricsEndpoint(t *testing.T) {
	s := startDaemon(t, ServerConfig{Functional: true})
	c := s.dial(t, Options{})

	const n, cycles = 256, 3
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, out := make([]byte, sess.inBytes), make([]byte, sess.outBytes)
	for i := 0; i < cycles; i++ {
		if err := sess.RunCycle(in, out); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}

	samples := scrapeMetrics(t, s.cfg.Metrics)
	verb := func(v string) int64 { return samples[`gvmd_verb_requests_total{verb="`+v+`"}`] }

	// Frame-level counters must match the client's round trips exactly:
	// one REQ, one BAT per pipelined cycle, one RLS.
	if got, want := verb("REQ")+verb("BAT")+verb("RLS"), c.RoundTrips(); got != want {
		t.Fatalf("frame-level verb counters sum to %d, client made %d round trips", got, want)
	}
	if verb("REQ") != 1 || verb("BAT") != cycles || verb("RLS") != 1 {
		t.Fatalf("REQ=%d BAT=%d RLS=%d, want 1/%d/1", verb("REQ"), verb("BAT"), verb("RLS"), cycles)
	}
	// BAT inner steps count against their own verbs too.
	for _, v := range []string{"SND", "STR", "STP", "RCV"} {
		if verb(v) != cycles {
			t.Fatalf("%s = %d, want %d (one per pipelined cycle)", v, verb(v), cycles)
		}
	}
	// Histogram counts agree with the counters they time.
	if got := samples[`gvmd_verb_latency_ns_count{verb="BAT"}`]; got != cycles {
		t.Fatalf("BAT latency histogram count = %d, want %d", got, cycles)
	}
	if got := samples["gvmd_bat_steps_count"]; got != cycles {
		t.Fatalf("bat_steps count = %d, want %d", got, cycles)
	}
	if got := samples["gvmd_bat_steps_sum"]; got != 4*cycles {
		t.Fatalf("bat_steps sum = %d, want %d (SND+STR+STP+RCV per cycle)", got, 4*cycles)
	}
	// Manager-side series flow through the same registry, labelled with
	// the owning shard's gpu index.
	if samples[`gvm_sessions_opened_total{gpu="0"}`] != 1 || samples[`gvm_sessions_closed_total{gpu="0"}`] != 1 {
		t.Fatalf("gvm sessions opened/closed = %d/%d, want 1/1",
			samples[`gvm_sessions_opened_total{gpu="0"}`], samples[`gvm_sessions_closed_total{gpu="0"}`])
	}
	if samples[`gvm_flushes_total{gpu="0"}`] != cycles {
		t.Fatalf("gvm_flushes_total = %d, want %d", samples[`gvm_flushes_total{gpu="0"}`], cycles)
	}
	// The node layer accounts placements; the session was released.
	if samples[`node_placed_sessions{gpu="0"}`] != 0 {
		t.Fatalf("node_placed_sessions = %d, want 0 after release", samples[`node_placed_sessions{gpu="0"}`])
	}
	// Data-plane byte counters: InBytes per SND, OutBytes per RCV.
	if got, want := samples[`gvmd_verb_bytes_total{dir="in",verb="SND"}`], int64(cycles)*sess.inBytes; got != want {
		t.Fatalf("SND bytes = %d, want %d", got, want)
	}
	if got, want := samples[`gvmd_verb_bytes_total{dir="out",verb="RCV"}`], int64(cycles)*sess.outBytes; got != want {
		t.Fatalf("RCV bytes = %d, want %d", got, want)
	}
	// Connection-layer series: this client is still connected.
	if samples["ipc_connections"] != 1 || samples["ipc_disconnects_total"] != 0 {
		t.Fatalf("connections=%d disconnects=%d, want 1/0",
			samples["ipc_connections"], samples["ipc_disconnects_total"])
	}
	if samples["ipc_frame_errors_total"] != 0 {
		t.Fatalf("frame errors = %d, want 0", samples["ipc_frame_errors_total"])
	}
}
