package node

import (
	"fmt"

	"gpuvirt/internal/gpusim"
)

// HealthState is one shard's position in the health state machine:
//
//	Healthy --(memory fault)--> Degraded --(hang/fatal)--> Unhealthy
//	   \---------(drain signal)------> Draining --(hang/fatal)--^
//
// Transitions only escalate (rank order below); a faulted simulated
// device never recovers in place, it is replaced by migrating its
// sessions away. Placement offers candidates only from Healthy shards;
// Degraded shards keep serving their existing sessions but receive no
// new ones; Unhealthy and Draining shards must be evacuated by the
// failover engine (Draining is the graceful, operator-initiated form).
type HealthState int32

const (
	// Healthy shards accept new placements.
	Healthy HealthState = iota
	// Degraded shards (memory faults) serve existing sessions but take
	// no new placements.
	Degraded
	// Draining shards are being decommissioned gracefully: no new
	// placements, and the failover engine migrates every session off.
	Draining
	// Unhealthy shards (hang/fatal faults) cannot make progress; every
	// session must fail over immediately.
	Unhealthy
)

func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Draining:
		return "draining"
	case Unhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("HealthState(%d)", int32(h))
	}
}

// Placeable reports whether a shard in this state accepts new sessions.
func (h HealthState) Placeable() bool { return h == Healthy }

// Evacuate reports whether a shard in this state must have its sessions
// migrated away.
func (h HealthState) Evacuate() bool { return h == Draining || h == Unhealthy }

// healthFor maps a device fault to the shard health it implies.
func healthFor(kind gpusim.FaultKind) HealthState {
	switch kind {
	case gpusim.XidMemory:
		return Degraded
	case gpusim.XidHang, gpusim.XidFatal:
		return Unhealthy
	default:
		return Healthy
	}
}

// Health returns shard i's current health. Safe from any goroutine (the
// state is the node_shard_health gauge's atomic).
func (n *Node) Health(i int) HealthState {
	return HealthState(n.health[i].Value())
}

// SetHealth escalates shard i to h (downgrades are ignored — the
// machine only moves toward Unhealthy) and, on a change, invokes the
// fault handler outside the node lock. Safe from any goroutine.
func (n *Node) SetHealth(i int, h HealthState) {
	n.mu.Lock()
	cur := HealthState(n.health[i].Value())
	if h <= cur {
		n.mu.Unlock()
		return
	}
	n.health[i].Set(int64(h))
	fn := n.faultHandler
	n.mu.Unlock()
	if n.cfg.Log != nil {
		n.cfg.Log.Warn("shard health escalated", "gpu", i, "from", cur.String(), "to", h.String())
	}
	if fn != nil {
		fn(i, h)
	}
}

// DrainAll drains the whole node: every shard is marked Draining before
// any fault handler fires, so the per-shard evacuations that follow
// cannot ping-pong sessions onto a sibling that is about to drain too.
// With no placeable shard left the intra-node failover engine leaves
// sessions serving in place; a federation router sees the node
// report itself unplaceable and migrates the sessions across nodes.
func (n *Node) DrainAll() {
	n.mu.Lock()
	changed := make([]int, 0, len(n.health))
	for i := range n.health {
		if HealthState(n.health[i].Value()) < Draining {
			n.health[i].Set(int64(Draining))
			changed = append(changed, i)
		}
	}
	fn := n.faultHandler
	n.mu.Unlock()
	for _, i := range changed {
		if n.cfg.Log != nil {
			n.cfg.Log.Warn("shard health escalated", "gpu", i, "to", Draining.String())
		}
		if fn != nil {
			fn(i, Draining)
		}
	}
}

// SetFaultHandler installs the callback invoked whenever a shard's
// health escalates (a device fault, SetHealth or DrainAll). The handler
// runs on the goroutine that caused the escalation — for device faults
// that is the goroutine holding the shard's owner lock, so it must not
// block on work that needs that same lock; the ipc server's handler hands
// off to a background goroutine. Install before serving traffic.
func (n *Node) SetFaultHandler(fn func(shard int, h HealthState)) {
	n.mu.Lock()
	n.faultHandler = fn
	n.mu.Unlock()
}
