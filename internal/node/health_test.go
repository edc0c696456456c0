package node

import (
	"strings"
	"testing"

	"gpuvirt/internal/gpusim"
)

func TestHealthForMapsFaultKinds(t *testing.T) {
	for _, tc := range []struct {
		kind gpusim.FaultKind
		want HealthState
	}{
		{gpusim.FaultNone, Healthy},
		{gpusim.XidMemory, Degraded},
		{gpusim.XidHang, Unhealthy},
		{gpusim.XidFatal, Unhealthy},
	} {
		if got := healthFor(tc.kind); got != tc.want {
			t.Errorf("healthFor(%v) = %v, want %v", tc.kind, got, tc.want)
		}
	}
}

func TestHealthStatePredicates(t *testing.T) {
	for _, tc := range []struct {
		h                   HealthState
		placeable, evacuate bool
	}{
		{Healthy, true, false},
		{Degraded, false, false},
		{Draining, false, true},
		{Unhealthy, false, true},
	} {
		if got := tc.h.Placeable(); got != tc.placeable {
			t.Errorf("%v.Placeable() = %v, want %v", tc.h, got, tc.placeable)
		}
		if got := tc.h.Evacuate(); got != tc.evacuate {
			t.Errorf("%v.Evacuate() = %v, want %v", tc.h, got, tc.evacuate)
		}
	}
}

// TestSetHealthEscalatesOnly pins the state machine's one rule: health
// moves only toward Unhealthy, and the fault handler fires exactly once
// per transition.
func TestSetHealthEscalatesOnly(t *testing.T) {
	nd, err := New(Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	type event struct {
		shard int
		h     HealthState
	}
	var events []event
	nd.SetFaultHandler(func(shard int, h HealthState) {
		events = append(events, event{shard, h})
	})

	nd.SetHealth(0, Degraded)
	nd.SetHealth(0, Degraded) // same state: no transition, no callback
	nd.SetHealth(0, Healthy)  // downgrade: ignored
	if got := nd.Health(0); got != Degraded {
		t.Fatalf("health after downgrade attempt = %v, want degraded", got)
	}
	nd.SetHealth(0, Unhealthy)
	nd.SetHealth(0, Draining) // below unhealthy: ignored
	if got := nd.Health(0); got != Unhealthy {
		t.Fatalf("health = %v, want unhealthy (escalate-only)", got)
	}
	if got := nd.Health(1); got != Healthy {
		t.Fatalf("gpu 1 health = %v, want healthy (untouched)", got)
	}
	want := []event{{0, Degraded}, {0, Unhealthy}}
	if len(events) != len(want) {
		t.Fatalf("handler fired %d times (%v), want %v", len(events), events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("handler events = %v, want %v", events, want)
		}
	}
}

// TestDrainIsAnEscalation checks a drain is the graceful evacuation entry:
// SetHealth marks the shard Draining via the same escalate-only machine, so
// an already-Unhealthy shard keeps its state.
func TestDrainIsAnEscalation(t *testing.T) {
	nd, err := New(Config{GPUs: 2})
	if err != nil {
		t.Fatal(err)
	}
	nd.SetHealth(0, Draining)
	if got := nd.Health(0); got != Draining {
		t.Fatalf("health after a drain = %v, want draining", got)
	}
	nd.SetHealth(1, Unhealthy)
	nd.SetHealth(1, Draining)
	if got := nd.Health(1); got != Unhealthy {
		t.Fatalf("a drain downgraded an unhealthy shard to %v", got)
	}
}

// TestPlaceSkipsUnplaceableShards checks placement only ever offers
// Healthy shards to the policy, and fails with a clear error when no
// shard is placeable.
func TestPlaceSkipsUnplaceableShards(t *testing.T) {
	nd, err := New(Config{GPUs: 3})
	if err != nil {
		t.Fatal(err)
	}
	nd.SetHealth(0, Degraded)
	nd.SetHealth(2, Unhealthy)
	for i := 0; i < 4; i++ {
		idx, err := nd.Place(1<<10, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Fatalf("placement %d landed on gpu %d, want 1 (the only healthy shard)", i, idx)
		}
	}
	nd.SetHealth(1, Draining)
	_, err = nd.Place(1<<10, 1<<10)
	if err == nil {
		t.Fatal("Place succeeded with every shard unplaceable")
	}
	if !strings.Contains(err.Error(), "no healthy GPU") {
		t.Fatalf("error %q does not say no healthy GPU remains", err)
	}
}
