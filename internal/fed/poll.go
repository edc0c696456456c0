package fed

import (
	"time"

	"gpuvirt/internal/node"
	"gpuvirt/internal/transport"
)

// Load polling: every PollInterval the router sends STA on a per-backend
// control connection and decodes the reply, the node's own folded
// node-level Load, as the backend's load. The poll is also the health
// probe — a node that stops answering goes dead, and a node that reports
// itself unplaceable (whole-node drain, every shard faulted) goes
// draining and gets a background evacuation.

func (r *Router) pollLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.quit:
			return
		case <-t.C:
			for _, b := range r.backends {
				r.pollBackend(b)
			}
		}
	}
}

// installCtl stores a freshly dialed control connection, unless a verb
// goroutine marked the backend dead since the dial — markDead already
// closed b.ctl, and dead nodes are never polled again, so an installed
// connection would sit open until Router.Close. Reports whether the
// backend is still worth polling.
func (b *backend) installCtl(ctl *transport.Conn) bool {
	b.mu.Lock()
	if b.state == stateDead {
		b.mu.Unlock()
		ctl.Close()
		ctl.Release()
		return false
	}
	b.ctl = ctl
	b.mu.Unlock()
	return true
}

// pollBackend performs one STA round trip on the backend's control
// connection (dialing or redialing it as needed) and applies the load
// report. Dial failure marks the node dead; dead nodes are not
// polled again (their state never de-escalates).
func (r *Router) pollBackend(b *backend) {
	b.mu.Lock()
	if b.state == stateDead {
		b.mu.Unlock()
		return
	}
	ctl := b.ctl
	b.mu.Unlock()
	if ctl == nil {
		var err error
		if ctl, _, err = transport.Dial(b.addr); err != nil {
			r.markDead(b, err)
			return
		}
		if !b.installCtl(ctl) {
			return
		}
	}
	resp, err := tripConn(ctl, &transport.Request{Verb: "STA"})
	if err != nil {
		ctl.Close()
		ctl.Release()
		b.mu.Lock()
		b.ctl = nil
		b.mu.Unlock()
		// One redial covers a benign dropped control connection; a node
		// that cannot be re-reached is dead.
		ctl2, _, derr := transport.Dial(b.addr)
		if derr != nil {
			r.markDead(b, derr)
			return
		}
		resp, err = tripConn(ctl2, &transport.Request{Verb: "STA"})
		if err != nil {
			ctl2.Close()
			ctl2.Release()
			r.markDead(b, err)
			return
		}
		if !b.installCtl(ctl2) {
			return
		}
	}
	if resp.Status != "ACK" {
		// A node that refuses STA stays alive with the zero load it started
		// with: no headroom, so placement never picks it.
		return
	}
	load, err := node.DecodeLoad(resp.Data)
	if err != nil {
		if r.cfg.Log != nil {
			r.cfg.Log.Warn("bad load report", "node", b.idx, "err", err)
		}
		return
	}
	b.mu.Lock()
	b.polled = load
	// Snapshot the router's own counters alongside the report: load()
	// corrects it by the delta placed since this moment.
	b.bytesAtPoll = b.bytes.Load()
	b.sessionsAtPoll = b.sessions.Value()
	drained := b.state == stateAlive && !load.Health.Placeable()
	if drained {
		b.state = stateDraining
	}
	b.mu.Unlock()
	if drained {
		if r.cfg.Log != nil {
			r.cfg.Log.Warn("backend node draining", "node", b.idx, "health", load.Health.String())
		}
		go r.evacuate(b)
	}
}
