package node

import (
	"encoding/binary"
	"strings"
	"testing"
)

// TestPlacerSharedAcrossLevels pins the two-level placement contract:
// the SAME Placer runs at the node→shard level and at the federation→node
// level — only the Loads and the noun differ.
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

// TestPlacerUnknownPolicy checks that any name but the one policy's, the
// retired policies' names included, fails to build a placer.
func TestPlacerUnknownPolicy(t *testing.T) {
	for _, name := range []string{"no-such-policy", "least-memory", "weighted-bytes", "slo"} {
		if _, err := NewPlacer(name, "node"); err == nil {
			t.Errorf("NewPlacer accepted the unknown policy name %q", name)
		}
	}
}

// TestPlacerFiltersUnplaceable checks that degraded/draining/unhealthy
// targets are never picked even when they hold the fewest sessions.
func TestPlacerFiltersUnplaceable(t *testing.T) {
	pl, err := NewPlacer(LeastSessions, "node")
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{
		{Shard: 0, Health: Draining, MemFree: 8 << 30},
		{Shard: 1, Health: Unhealthy, MemFree: 8 << 30},
		{Shard: 2, Health: Healthy, Sessions: 5, Bytes: 4 << 20, MemFree: 1 << 30},
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

// TestNodeLoadRoundTrip checks the STA load report: Node.NodeLoad folds
// the shards into one node-level Load (sessions and bytes over every
// shard, headroom over the placeable ones, health the best shard's), and
// the record AppendLoad writes decodes to that Load; an out-of-range
// health reads as Unhealthy, and a truncated or overlong record fails.
func TestNodeLoadRoundTrip(t *testing.T) {
	nd, err := New(Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Place(1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	nd.SetHealth(1, Draining)

	l := nd.NodeLoad()
	if l.Health != Healthy {
		t.Fatalf("node health = %v, want healthy (best shard wins)", l.Health)
	}
	if l.Sessions != 1 || l.Bytes != 2<<20 {
		t.Fatalf("NodeLoad folded %d sessions / %d bytes, want 1 / %d", l.Sessions, l.Bytes, 2<<20)
	}
	// The draining shard's free bytes are not headroom anyone can use.
	if want := nd.Loads()[0].MemFree; l.MemFree != want {
		t.Fatalf("NodeLoad headroom = %d, want the placeable shard's %d", l.MemFree, want)
	}
	rec := AppendLoad(nil, l)
	got, err := DecodeLoad(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("load record round trip: %+v != %+v", got, l)
	}

	for h, want := range map[HealthState]HealthState{
		Healthy: Healthy, Degraded: Degraded, Draining: Draining, Unhealthy: Unhealthy,
		Unhealthy + 1: Unhealthy, -1: Unhealthy,
	} {
		got, err := DecodeLoad(AppendLoad(nil, Load{Health: h}))
		if err != nil || got.Health != want {
			t.Fatalf("health %d decodes as %v (err %v), want %v", h, got.Health, err, want)
		}
	}
	for _, bad := range [][]byte{nil, rec[:len(rec)-1], append(rec[:len(rec):len(rec)], 0)} {
		if _, err := DecodeLoad(bad); err == nil {
			t.Fatalf("DecodeLoad(%x) accepted a malformed record", bad)
		}
	}
	// The record once carried a sixth varint, a p99 turnaround: a node that
	// still sends one is refused, not half read.
	six := binary.AppendVarint(append([]byte(nil), rec...), 41067)
	if _, err := DecodeLoad(six); err == nil || !strings.Contains(err.Error(), "trailing bytes") {
		t.Fatalf("DecodeLoad of a six-field record = %v, want a trailing-bytes error", err)
	}
}

// TestNodeLoadAllDrainingIsUnplaceable checks a node whose every shard
// drains reports an unplaceable state so the router evacuates it.
func TestNodeLoadAllDrainingIsUnplaceable(t *testing.T) {
	nd, err := New(Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	nd.DrainAll()
	l := nd.NodeLoad()
	if l.Health.Placeable() {
		t.Fatalf("all-draining node folded to placeable state %v", l.Health)
	}
	if l.MemFree != 0 {
		t.Fatalf("all-draining node reports %d free bytes as headroom, want 0", l.MemFree)
	}
}

// FuzzDecodeLoad holds the load-record decoder on arbitrary bytes: it never
// panics, a record it accepts carries one of the four health states, and
// the record AppendLoad writes for what it decoded decodes to the same
// Load.
func FuzzDecodeLoad(f *testing.F) {
	for _, l := range []Load{
		{},
		{Health: Healthy, Sessions: 3, Bytes: 6 << 20, MemFree: 1 << 30, Resident: 4 << 20},
		{Health: Draining, Sessions: 2, Bytes: 1 << 20},
		{Health: Unhealthy + 7, MemFree: -1, Resident: 1<<63 - 1},
	} {
		f.Add(AppendLoad(nil, l))
	}
	nd, err := New(Config{GPUs: 2})
	if err != nil {
		f.Fatal(err)
	}
	nd.DrainAll()
	f.Add(AppendLoad(nil, nd.NodeLoad()))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeLoad(data)
		if err != nil {
			return
		}
		if l.Health < Healthy || l.Health > Unhealthy {
			t.Fatalf("decoded health %d is none of the four states", l.Health)
		}
		got, err := DecodeLoad(AppendLoad(nil, l))
		if err != nil || got != l {
			t.Fatalf("round trip of %+v: %+v, %v", l, got, err)
		}
	})
}
