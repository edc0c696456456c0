package node

import (
	"strings"
	"testing"

	"gpuvirt/internal/fermi"
)

func TestPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	// The empty name is the default policy.
	p, err := PolicyByName("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != LeastSessions {
		t.Fatalf("default policy = %q, want %q", p.Name(), LeastSessions)
	}
	// Unknown names fail with an error listing every valid choice.
	_, err = PolicyByName("bogus")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list policy %q", err, name)
		}
	}
}

// TestPolicyPicks pins each policy's choice on a fixed candidate set.
func TestPolicyPicks(t *testing.T) {
	cands := []Load{
		{Shard: 0, Sessions: 3, Bytes: 300, MemFree: 700},
		{Shard: 1, Sessions: 1, Bytes: 500, MemFree: 500},
		{Shard: 2, Sessions: 2, Bytes: 100, MemFree: 900},
	}
	for _, tc := range []struct {
		policy string
		want   int
	}{
		{LeastSessions, 1}, // fewest placed sessions
		{LeastMemory, 2},   // most free device memory
		{WeightedBytes, 2}, // smallest placed footprint
	} {
		p, err := PolicyByName(tc.policy)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Pick(cands, 64); got != tc.want {
			t.Errorf("%s picked cands[%d], want cands[%d]", tc.policy, got, tc.want)
		}
	}
}

// TestPolicyTieBreak pins the deterministic tie rule: equal loads go to
// the lowest shard index, so placement is reproducible run to run.
func TestPolicyTieBreak(t *testing.T) {
	cands := []Load{
		{Shard: 0, Sessions: 2, Bytes: 200, MemFree: 800},
		{Shard: 1, Sessions: 2, Bytes: 200, MemFree: 800},
	}
	for _, name := range []string{LeastSessions, LeastMemory, WeightedBytes} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Pick(cands, 64); got != 0 {
			t.Errorf("%s broke the tie to cands[%d], want cands[0]", name, got)
		}
	}
}

// TestSLOPolicyPicks pins the SLO policy: lowest observed p99 turnaround
// wins even against a session-count advantage, cold shards (no latency
// signal yet) attract sessions first, and full ties fall back to fewest
// sessions then lowest index.
func TestSLOPolicyPicks(t *testing.T) {
	p, err := PolicyByName(SLO)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded shard with the best tail latency beats an idle-but-slow one.
	cands := []Load{
		{Shard: 0, Sessions: 1, P99TurnNS: 5_000_000},
		{Shard: 1, Sessions: 4, P99TurnNS: 2_000_000},
		{Shard: 2, Sessions: 2, P99TurnNS: 3_000_000},
	}
	if got := p.Pick(cands, 64); got != 1 {
		t.Errorf("slo picked cands[%d], want cands[1] (lowest p99)", got)
	}
	// A cold shard reports p99 = 0 and wins over any measured latency.
	cands[2].P99TurnNS = 0
	if got := p.Pick(cands, 64); got != 2 {
		t.Errorf("slo picked cands[%d], want cands[2] (cold shard)", got)
	}
	// Equal p99 falls back to fewest sessions.
	even := []Load{
		{Shard: 0, Sessions: 3, P99TurnNS: 0},
		{Shard: 1, Sessions: 1, P99TurnNS: 0},
	}
	if got := p.Pick(even, 64); got != 1 {
		t.Errorf("slo tie picked cands[%d], want cands[1] (fewest sessions)", got)
	}
	// Full tie goes to the lowest index for run-to-run reproducibility.
	even[1].Sessions = 3
	if got := p.Pick(even, 64); got != 0 {
		t.Errorf("slo full tie picked cands[%d], want cands[0]", got)
	}
}

// TestPlacementSkewProperty is the property test for the placement
// layer: placing K sessions over N shards never skews the shards beyond
// the policy's balance bound. Session-count policies stay within one
// session of each other; byte-weighted policies stay within one maximal
// footprint. Checked after EVERY placement, not just at the end.
func TestPlacementSkewProperty(t *testing.T) {
	const k = 96
	// Deterministic footprint sequence (LCG), 1-8 MiB per session.
	footprints := make([]int64, k)
	seed := uint32(12345)
	var maxFoot int64
	for i := range footprints {
		seed = seed*1664525 + 1013904223
		footprints[i] = int64(1+seed%8) << 20
		if footprints[i] > maxFoot {
			maxFoot = footprints[i]
		}
	}
	for _, policy := range PolicyNames() {
		for _, gpus := range []int{2, 3, 4} {
			nd, err := New(Config{GPUs: gpus, Placement: policy})
			if err != nil {
				t.Fatal(err)
			}
			shards := make([]int, k)
			for i, f := range footprints {
				// Least-sessions balances arrivals, not bytes: give it
				// uniform footprints so its bound is exact.
				if policy == LeastSessions {
					f = 1 << 20
					footprints[i] = f
				}
				idx, err := nd.Place(f, 0)
				if err != nil {
					t.Fatalf("%s/%d gpus: place %d: %v", policy, gpus, i, err)
				}
				shards[i] = idx
				// With nothing released and every shard fitting, the lowest-index
				// tie-break deals arrivals out in shard order.
				if policy == LeastSessions && idx != i%gpus {
					t.Fatalf("%s/%d gpus: placement %d landed on shard %d, want %d", policy, gpus, i, idx, i%gpus)
				}
				var minS, maxS, minB, maxB int64
				for j, l := range nd.Loads() {
					if j == 0 || l.Sessions < minS {
						minS = l.Sessions
					}
					if l.Sessions > maxS {
						maxS = l.Sessions
					}
					if j == 0 || l.Bytes < minB {
						minB = l.Bytes
					}
					if l.Bytes > maxB {
						maxB = l.Bytes
					}
				}
				switch policy {
				case LeastSessions:
					if maxS-minS > 1 {
						t.Fatalf("%s/%d gpus after %d placements: session skew %d, bound 1",
							policy, gpus, i+1, maxS-minS)
					}
				case WeightedBytes, LeastMemory:
					if maxB-minB > maxFoot {
						t.Fatalf("%s/%d gpus after %d placements: byte skew %d, bound %d",
							policy, gpus, i+1, maxB-minB, maxFoot)
					}
				}
			}
			// Releasing everything returns every shard to zero load.
			for i, idx := range shards {
				nd.Release(idx, footprints[i], 0)
			}
			for _, l := range nd.Loads() {
				if l.Sessions != 0 || l.Bytes != 0 {
					t.Fatalf("%s/%d gpus: shard %d holds %d sessions / %d bytes after full release",
						policy, gpus, l.Shard, l.Sessions, l.Bytes)
				}
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
