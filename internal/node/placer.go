package node

import (
	"fmt"
	"strings"
)

// LeastSessions is the one placement policy: the fewest placed sessions,
// ties to the lowest index.
const LeastSessions = "least-sessions"

// Placer is one level of the two-level placement hierarchy: the shared
// admission filter and pick that both the node (choosing a GPU shard for a
// session) and the federation router (choosing a gvmd node for a session)
// run. The level only changes the Loads fed in and the noun used in
// rejection errors.
//
// A Placer holds no state of its own: making select-and-reserve atomic is
// its caller's lock (Node.mu, Router.placeMu).
type Placer struct {
	// Noun names one placement target in rejection errors: "GPU" at the
	// node→shard level, "node" at the federation→node level.
	Noun string
}

// NewPlacer builds a placer for one hierarchy level. policyName must be
// "" or LeastSessions: the name survives because bench/gvmload and the
// daemons' -placement flag pass it, and any other name fails here, at
// start-up.
func NewPlacer(policyName, noun string) (*Placer, error) {
	if policyName != "" && policyName != LeastSessions {
		return nil, fmt.Errorf("node: unknown placement policy %q (the one policy is %s)", policyName, LeastSessions)
	}
	return &Placer{Noun: noun}, nil
}

// noun is the per-entry label used when rendering loads ("gpu 0: ...",
// "node 1: ...").
func (pl *Placer) noun() string { return strings.ToLower(pl.Noun) }

// Select runs this level's admission filter over the current loads and
// returns the chosen target's id (Load.Shard). Targets whose health is not
// Placeable are never chosen; of the rest, only those with footprint bytes
// of reservation headroom are candidates, and the one with the fewest
// placed sessions wins, ties to the lowest index — until something is
// released, arrivals are dealt out in target order. Rejections name every
// target's health state alongside its free bytes, so an Unhealthy target
// is distinguishable from a full one.
func (pl *Placer) Select(all []Load, footprint int64) (int, error) {
	best, placeable := -1, 0
	for i, l := range all {
		// Degraded/draining/unhealthy targets are skipped: faults must
		// never attract new sessions.
		if !l.Health.Placeable() {
			continue
		}
		placeable++
		if footprint <= l.MemFree && (best < 0 || l.Sessions < all[best].Sessions) {
			best = i
		}
	}
	if placeable == 0 {
		return -1, fmt.Errorf("no healthy %s to place on (%s)", pl.Noun, describeLoads(pl.noun(), all))
	}
	if best < 0 {
		return -1, fmt.Errorf("session footprint %d bytes exceeds every healthy %s's reservation headroom (%s)",
			footprint, pl.Noun, describeLoads(pl.noun(), all))
	}
	return all[best].Shard, nil
}
