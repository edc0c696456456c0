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
	// Health is the target's health state; the Placer only picks among
	// Placeable targets, and rejection errors name the state so an
	// Unhealthy target is distinguishable from a full one.
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
