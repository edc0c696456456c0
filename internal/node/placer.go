package node

import (
	"fmt"
	"strings"
)

// Placer is one level of the two-level placement hierarchy: the shared
// admission-filter + policy-pick engine that both the node (choosing a
// GPU shard for a session) and the federation router (choosing a gvmd
// node for a session) drive with the same Policy implementations. The
// level only changes the Loads fed in and the noun used in rejection
// errors — the filtering and the policies are identical, so a policy
// written once composes at node level and shard level with no
// duplicated code.
//
// A Placer holds no state of its own: making select-and-reserve atomic is
// its caller's lock (Node.mu, Router.placeMu).
type Placer struct {
	// Noun names one placement target in rejection errors: "GPU" at the
	// node→shard level, "node" at the federation→node level.
	Noun string

	policy Policy
}

// NewPlacer builds a placer for one hierarchy level from a policy name
// (see PolicyNames) and the target noun used in errors.
func NewPlacer(policyName, noun string) (*Placer, error) {
	policy, err := PolicyByName(policyName)
	if err != nil {
		return nil, err
	}
	return &Placer{Noun: noun, policy: policy}, nil
}

// noun is the per-entry label used when rendering loads ("gpu 0: ...",
// "node 1: ...").
func (pl *Placer) noun() string { return strings.ToLower(pl.Noun) }

// Policy returns the active policy's name.
func (pl *Placer) Policy() string { return pl.policy.Name() }

// Select runs this level's admission filter and placement policy over
// the current loads and returns the chosen target's id (Load.Shard).
// Targets whose health is not Placeable are invisible to the policy;
// of the rest, only those with footprint bytes of reservation headroom
// are candidates. Rejections name every target's health state alongside
// its free bytes, so an Unhealthy target is distinguishable from a full
// one.
func (pl *Placer) Select(all []Load, footprint int64) (int, error) {
	cands := make([]Load, 0, len(all))
	placeable := 0
	for _, l := range all {
		// Degraded/draining/unhealthy targets are invisible to the
		// policy: faults must never attract new sessions.
		if !l.Health.Placeable() {
			continue
		}
		placeable++
		if footprint <= l.MemFree {
			cands = append(cands, l)
		}
	}
	if placeable == 0 {
		return -1, fmt.Errorf("no healthy %s to place on (%s)", pl.Noun, describeLoads(pl.noun(), all))
	}
	if len(cands) == 0 {
		return -1, fmt.Errorf("session footprint %d bytes exceeds every healthy %s's reservation headroom (%s)",
			footprint, pl.Noun, describeLoads(pl.noun(), all))
	}
	k := pl.policy.Pick(cands, footprint)
	if k < 0 || k >= len(cands) {
		k = 0
	}
	return cands[k].Shard, nil
}
