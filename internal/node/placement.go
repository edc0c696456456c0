package node

import (
	"fmt"
	"sort"
	"strings"
)

// Load is one shard's placement-relevant load, maintained by the node in
// O(1) per REQ/RLS (no session-map rescans): counters move when a
// session is placed or released, never by iterating live sessions.
type Load struct {
	// Shard is the placement target's index at this hierarchy level: the
	// GPU index when the node places a session on a shard, the backend
	// node index when the federation router places a session on a gvmd.
	Shard int
	// Health is the target's health state; the Placer only offers
	// Placeable targets to the policy, and rejection errors name the
	// state so an Unhealthy target is distinguishable from a full one.
	Health HealthState
	// Sessions is the number of sessions currently placed on the shard.
	Sessions int64
	// Bytes is the aggregate staging footprint (InBytes+OutBytes) of the
	// placed sessions — the shard's RESERVED bytes from the placement
	// layer's point of view.
	Bytes int64
	// MemFree is the reservation headroom left under the node's
	// overcommit quota (Overcommit x capacity - Bytes). Under overcommit
	// this is admission headroom, not physically free device memory.
	MemFree int64
	// Resident is the shard's physically resident device memory — what
	// the manager has actually allocated on the card. Reserved bytes
	// beyond Resident are evicted arenas (or not-yet-touched
	// reservations) living in host snapshots.
	Resident int64
	// P99TurnNS is the shard's observed p99 STR→completion turnaround in
	// virtual nanoseconds, read from the live gvm_turnaround_ns metric
	// (0 until the shard has completed a cycle). The SLO policy places by
	// this instead of by session count.
	P99TurnNS int64
}

// Policy picks the shard for a new session. Pick receives the admissible
// candidates (every shard whose free device memory fits the footprint,
// ascending shard index) and returns an index INTO cands. A policy is a
// pure function of the loads it is shown.
type Policy interface {
	Name() string
	Pick(cands []Load, footprint int64) int
}

// Policy names accepted by PolicyByName (and gvmd -placement).
const (
	LeastSessions = "least-sessions"
	LeastMemory   = "least-memory"
	WeightedBytes = "weighted-bytes"
	SLO           = "slo"
)

// PolicyNames lists the built-in policies in flag-help order.
func PolicyNames() []string {
	return []string{LeastSessions, LeastMemory, WeightedBytes, SLO}
}

// PolicyByName returns a built-in policy.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", LeastSessions:
		return leastSessions{}, nil
	case LeastMemory:
		return leastMemory{}, nil
	case WeightedBytes:
		return weightedBytes{}, nil
	case SLO:
		return sloPolicy{}, nil
	}
	return nil, fmt.Errorf("node: unknown placement policy %q (want %s)",
		name, strings.Join(PolicyNames(), ", "))
}

// leastSessions picks the shard with the fewest placed sessions (ties go
// to the lowest index) — the pre-shard daemon's placement behaviour. Until
// something is released it deals arrivals out in shard order.
type leastSessions struct{}

func (leastSessions) Name() string { return LeastSessions }

func (leastSessions) Pick(cands []Load, _ int64) int {
	best := 0
	for i, c := range cands {
		if c.Sessions < cands[best].Sessions {
			best = i
		}
	}
	return best
}

// leastMemory picks the shard with the most free device memory (i.e. the
// least memory in use), so memory-heavy sessions spread by footprint
// headroom rather than session count.
type leastMemory struct{}

func (leastMemory) Name() string { return LeastMemory }

func (leastMemory) Pick(cands []Load, _ int64) int {
	best := 0
	for i, c := range cands {
		if c.MemFree > cands[best].MemFree {
			best = i
		}
	}
	return best
}

// weightedBytes picks the shard with the smallest placed staging
// footprint: sessions are weighted by their bytes, so one large session
// counts as many small ones when balancing.
type weightedBytes struct{}

func (weightedBytes) Name() string { return WeightedBytes }

func (weightedBytes) Pick(cands []Load, _ int64) int {
	best := 0
	for i, c := range cands {
		if c.Bytes < cands[best].Bytes {
			best = i
		}
	}
	return best
}

// sloPolicy picks the shard with the lowest observed p99 turnaround —
// the live latency a new tenant would actually experience there — read
// from each shard's gvm_turnaround_ns histogram. Shards with no
// completed cycles report 0 and thus attract sessions first (cold shards
// are the best SLO bet); ties fall back to fewest sessions, then lowest
// index, so a cold multi-shard node behaves like least-sessions until
// latency signal accumulates.
type sloPolicy struct{}

func (sloPolicy) Name() string { return SLO }

func (sloPolicy) Pick(cands []Load, _ int64) int {
	best := 0
	for i, c := range cands[1:] {
		b := cands[best]
		if c.P99TurnNS < b.P99TurnNS ||
			(c.P99TurnNS == b.P99TurnNS && c.Sessions < b.Sessions) {
			best = i + 1
		}
	}
	return best
}

// describeLoads renders candidate loads for admission errors, e.g.
// "gpu 0 healthy: 512 B headroom (1024 B reserved, 768 B resident)".
// Each entry names the target's health state alongside its free bytes —
// an Unhealthy target shows up as such instead of masquerading as a
// full one. Headroom is what is left under the overcommit quota;
// reserved vs resident shows how much of the placed footprint actually
// sits on the card. noun labels one target ("gpu", "node").
func describeLoads(noun string, loads []Load) string {
	sorted := append([]Load(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard < sorted[j].Shard })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d %s: %d B headroom (%d B reserved, %d B resident)",
			noun, l.Shard, l.Health, l.MemFree, l.Bytes, l.Resident)
	}
	return b.String()
}
