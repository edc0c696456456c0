package node

import (
	"strings"
	"testing"

	"gpuvirt/internal/fermi"
)

// TestPolicyByName checks the policy names a placer is built from: "" is
// the default, least-sessions, and an unknown name fails with an error
// naming the one valid choice.
func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", LeastSessions} {
		if _, err := NewPlacer(name, "GPU"); err != nil {
			t.Errorf("NewPlacer(%q): %v", name, err)
		}
	}
	_, err := NewPlacer("bogus", "GPU")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), LeastSessions) {
		t.Fatalf("error %q does not name policy %q", err, LeastSessions)
	}
}

// TestPolicyPicks pins the placer's choice on a fixed candidate set: the
// fewest placed sessions, whatever the bytes and headroom say.
func TestPolicyPicks(t *testing.T) {
	cands := []Load{
		{Shard: 0, Sessions: 3, Bytes: 300, MemFree: 700},
		{Shard: 1, Sessions: 1, Bytes: 500, MemFree: 500},
		{Shard: 2, Sessions: 2, Bytes: 100, MemFree: 900},
	}
	if got, err := (&Placer{Noun: "GPU"}).Select(cands, 64); err != nil || got != 1 {
		t.Errorf("picked shard %d (err %v), want shard 1", got, err)
	}
}

// TestPolicyTieBreak pins the deterministic tie rule: equal loads go to
// the lowest shard index, so placement is reproducible run to run.
func TestPolicyTieBreak(t *testing.T) {
	cands := []Load{
		{Shard: 0, Sessions: 2, Bytes: 200, MemFree: 800},
		{Shard: 1, Sessions: 2, Bytes: 200, MemFree: 800},
	}
	if got, err := (&Placer{Noun: "GPU"}).Select(cands, 64); err != nil || got != 0 {
		t.Errorf("broke the tie to shard %d (err %v), want shard 0", got, err)
	}
}

// TestPlacementSkewProperty is the property test for the placement
// layer: placing K sessions over N shards never skews the shards' session
// counts more than one apart, and with nothing released arrivals are dealt
// out in shard order. Checked after EVERY placement, not just at the end.
func TestPlacementSkewProperty(t *testing.T) {
	const k = 96
	// Deterministic footprint sequence (LCG), 1-8 MiB per session: the
	// placer balances arrivals, whatever their bytes.
	footprints := make([]int64, k)
	seed := uint32(12345)
	for i := range footprints {
		seed = seed*1664525 + 1013904223
		footprints[i] = int64(1+seed%8) << 20
	}
	for _, gpus := range []int{2, 3, 4} {
		nd, err := New(Config{GPUs: gpus})
		if err != nil {
			t.Fatal(err)
		}
		shards := make([]int, k)
		for i, f := range footprints {
			idx, err := nd.Place(f, 0)
			if err != nil {
				t.Fatalf("%d gpus: place %d: %v", gpus, i, err)
			}
			shards[i] = idx
			// With nothing released and every shard fitting, the lowest-index
			// tie-break deals arrivals out in shard order.
			if idx != i%gpus {
				t.Fatalf("%d gpus: placement %d landed on shard %d, want %d", gpus, i, idx, i%gpus)
			}
			var minS, maxS int64
			for j, l := range nd.Loads() {
				if j == 0 || l.Sessions < minS {
					minS = l.Sessions
				}
				maxS = max(maxS, l.Sessions)
			}
			if maxS-minS > 1 {
				t.Fatalf("%d gpus after %d placements: session skew %d, bound 1", gpus, i+1, maxS-minS)
			}
		}
		// Releasing everything returns every shard to zero load.
		for i, idx := range shards {
			nd.Release(idx, footprints[i], 0)
		}
		for _, l := range nd.Loads() {
			if l.Sessions != 0 || l.Bytes != 0 {
				t.Fatalf("%d gpus: shard %d holds %d sessions / %d bytes after full release",
					gpus, l.Shard, l.Sessions, l.Bytes)
			}
		}
	}
}

// TestAdmissionMaxSessionBytes rejects a session whose staging footprint
// exceeds the per-session cap, naming the flag and the limit.
func TestAdmissionMaxSessionBytes(t *testing.T) {
	nd, err := New(Config{GPUs: 2, MaxSessionBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	_, err = nd.Place(800, 300)
	if err == nil {
		t.Fatal("oversized session placed despite MaxSessionBytes")
	}
	if !strings.Contains(err.Error(), "max-session-bytes") || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("rejection does not name the limit: %v", err)
	}
	if idx, err := nd.Place(600, 300); err != nil || idx != 0 {
		t.Fatalf("in-limit session: shard %d, err %v", idx, err)
	}
}

// TestAdmissionMemoryFit covers the device-memory admission filter: a
// session only lands on shards with the headroom for it, and when no
// shard fits the error names every candidate GPU and its free memory.
func TestAdmissionMemoryFit(t *testing.T) {
	arch := fermi.TeslaC2070()
	arch.MemBytes = 1024
	nd, err := New(Config{GPUs: 2, Arch: arch})
	if err != nil {
		t.Fatal(err)
	}
	// Too big for any shard: the error enumerates the GPUs.
	_, err = nd.Place(2048, 0)
	if err == nil {
		t.Fatal("unfittable session placed")
	}
	for _, want := range []string{"reservation headroom", "gpu 0 healthy: 1024 B headroom", "gpu 1 healthy: 1024 B headroom"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("admission error %q missing %q", err, want)
		}
	}
	// Fill shard 0; the next session must skip it even though the policy
	// (least-sessions) would otherwise balance onto it.
	if idx, err := nd.Place(1024, 0); err != nil || idx != 0 {
		t.Fatalf("first fill: shard %d, err %v", idx, err)
	}
	if idx, err := nd.Place(600, 0); err != nil || idx != 1 {
		t.Fatalf("session should land on the only shard with headroom: shard %d, err %v", idx, err)
	}
	// Both shards full now: admission fails and reports the real headroom.
	_, err = nd.Place(600, 0)
	if err == nil {
		t.Fatal("session placed with no shard headroom")
	}
	if !strings.Contains(err.Error(), "gpu 0 healthy: 0 B headroom") || !strings.Contains(err.Error(), "gpu 1 healthy: 424 B headroom") {
		t.Fatalf("admission error %q does not report per-GPU headroom", err)
	}
}
