package node

import (
	"strings"
	"testing"
)

// TestPlacerSharedAcrossLevels pins the two-level placement contract:
// the SAME Policy implementation drives a Placer at the node→shard
// level and at the federation→node level — only the Loads and the noun
// differ.
func TestPlacerSharedAcrossLevels(t *testing.T) {
	loads := []Load{
		{Shard: 0, Health: Healthy, Sessions: 3, MemFree: 1 << 30},
		{Shard: 1, Health: Healthy, Sessions: 1, MemFree: 1 << 30},
	}
	for _, noun := range []string{"GPU", "node"} {
		pl, err := NewPlacer("least-sessions", noun)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := pl.Select(loads, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("%s-level least-sessions picked %d, want 1 (fewest sessions)", noun, idx)
		}
	}
}

func TestPlacerUnknownPolicy(t *testing.T) {
	if _, err := NewPlacer("no-such-policy", "node"); err == nil {
		t.Fatal("NewPlacer accepted an unknown policy name")
	}
}

// TestPlacerFiltersUnplaceable checks that degraded/draining/unhealthy
// targets are invisible to the policy even when they have the most
// headroom.
func TestPlacerFiltersUnplaceable(t *testing.T) {
	pl, err := NewPlacer("least-memory", "node")
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{
		{Shard: 0, Health: Draining, MemFree: 8 << 30},
		{Shard: 1, Health: Unhealthy, MemFree: 8 << 30},
		{Shard: 2, Health: Healthy, Bytes: 4 << 20, MemFree: 1 << 30},
		{Shard: 3, Health: Degraded, MemFree: 8 << 30},
	}
	for i := 0; i < 3; i++ {
		idx, err := pl.Select(loads, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 2 {
			t.Fatalf("Select picked %d, want 2 (the only placeable target)", idx)
		}
	}
}

// TestPlacerRejectionNamesHealthStates checks satellite 2's contract:
// rejection errors name each target's health state alongside its free
// bytes, so an unhealthy target is distinguishable from a full one.
func TestPlacerRejectionNamesHealthStates(t *testing.T) {
	pl, err := NewPlacer("least-sessions", "node")
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{
		{Shard: 0, Health: Unhealthy, MemFree: 8 << 30},
		{Shard: 1, Health: Draining, MemFree: 2 << 30},
	}
	_, err = pl.Select(loads, 1<<20)
	if err == nil {
		t.Fatal("Select succeeded with no placeable target")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no healthy node") {
		t.Fatalf("error %q does not lead with the level's noun", msg)
	}
	for _, want := range []string{"node 0", "unhealthy", "node 1", "draining", "headroom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not name %q", msg, want)
		}
	}

	// Full-but-healthy reads differently from unhealthy: the footprint
	// error still names each target's state.
	loads = []Load{{Shard: 0, Health: Healthy, MemFree: 1 << 10}}
	_, err = pl.Select(loads, 1<<20)
	if err == nil {
		t.Fatal("Select fit a footprint over the headroom")
	}
	msg = err.Error()
	if !strings.Contains(msg, "exceeds every healthy node") || !strings.Contains(msg, "healthy") {
		t.Fatalf("headroom error %q does not name the health state", msg)
	}
}

// TestDrainAllMarksEveryShard checks the whole-node drain entry used by
// gvmd's SIGUSR1 handler: every shard below Draining escalates to
// Draining in one call (no intra-node ping-pong), and worse states keep
// theirs.
func TestDrainAllMarksEveryShard(t *testing.T) {
	nd, err := New(Config{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	nd.SetHealth(2, Unhealthy)
	nd.DrainAll()
	for i, want := range []HealthState{Draining, Draining, Unhealthy} {
		if got := nd.Health(i); got != want {
			t.Fatalf("gpu %d after DrainAll = %v, want %v", i, got, want)
		}
	}
	if _, err := nd.Place(1<<10, 1<<10); err == nil {
		t.Fatal("Place succeeded on a fully drained node")
	}
}

// TestAdvertisementRoundTrip checks the addr-file v2 / STA schema: a
// node's advertisement survives MarshalAd/UnmarshalAd, and NodeLoad
// folds it into one federation-level Load.
func TestAdvertisementRoundTrip(t *testing.T) {
	nd, err := New(Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Place(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	nd.SetHealth(1, Draining)

	ad := nd.Advertise()
	if ad.V != AdvertVersion {
		t.Fatalf("advertisement version = %d, want %d", ad.V, AdvertVersion)
	}
	if ad.GPUs != 2 || len(ad.Shards) != 2 {
		t.Fatalf("advertisement covers %d/%d shards, want 2/2", ad.GPUs, len(ad.Shards))
	}
	blob, err := MarshalAd(ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAd(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.V != ad.V || got.GPUs != ad.GPUs || got.Placement != ad.Placement || len(got.Shards) != len(ad.Shards) {
		t.Fatalf("advertisement round trip changed the header: %+v != %+v", got, ad)
	}
	for i := range ad.Shards {
		if got.Shards[i] != ad.Shards[i] {
			t.Fatalf("shard %d round trip: %+v != %+v", i, got.Shards[i], ad.Shards[i])
		}
	}

	l := NodeLoad(7, got)
	if l.Shard != 7 {
		t.Fatalf("NodeLoad id = %d, want 7", l.Shard)
	}
	if l.Health != Healthy {
		t.Fatalf("node health = %v, want healthy (best shard wins)", l.Health)
	}
	if l.Sessions != 1 || l.Bytes != 2<<20 {
		t.Fatalf("NodeLoad folded %d sessions / %d bytes, want 1 / %d", l.Sessions, l.Bytes, 2<<20)
	}
	// The draining shard's free bytes are not headroom anyone can use.
	if want := got.Shards[0].FreeBytes; l.MemFree != want {
		t.Fatalf("NodeLoad headroom = %d, want the placeable shard's %d", l.MemFree, want)
	}
}

// TestParseHealth checks unknown names conservatively parse unhealthy.
func TestParseHealth(t *testing.T) {
	for name, want := range map[string]HealthState{
		"healthy": Healthy, "degraded": Degraded, "draining": Draining,
		"unhealthy": Unhealthy, "banana": Unhealthy, "": Unhealthy,
	} {
		if got := ParseHealth(name); got != want {
			t.Fatalf("ParseHealth(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestNodeLoadAllDrainingIsUnplaceable checks a node whose every shard
// drains reports an unplaceable state so the router evacuates it.
func TestNodeLoadAllDrainingIsUnplaceable(t *testing.T) {
	ad := Advertisement{V: AdvertVersion, GPUs: 2, Shards: []ShardAd{
		{GPU: 0, Health: "draining", FreeBytes: 1 << 30},
		{GPU: 1, Health: "draining", FreeBytes: 1 << 30},
	}}
	l := NodeLoad(0, ad)
	if l.Health.Placeable() {
		t.Fatalf("all-draining node folded to placeable state %v", l.Health)
	}
	if l.MemFree != 0 {
		t.Fatalf("all-draining node advertises %d free bytes as headroom, want 0", l.MemFree)
	}
}
