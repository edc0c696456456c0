package transport

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"gpuvirt/internal/shm"
)

// Ring-plane tuning. The spin budget is how many scheduler yields each
// side burns before arming its doorbell and parking on a futex; the park
// slice bounds one futex wait so a dead peer degrades into periodic
// re-checks instead of a hang.
const (
	ringSpinBudget = 512
	ringParkSlice  = 100 * time.Millisecond
)

// RingPlane is the client side of the zero-syscall control plane, a ring
// session's carrier: after REQ negotiates PlaneRing, every verb of the
// session travels as a binary frame through the submission ring and its
// response comes back through the completion ring, both inside the mmap'd
// segment the session's Plane holds. Payloads move through that segment's
// staging regions, which the daemon has bound as the session's pinned staging
// — so a warm SND→STR→STP→RCV cycle crosses the kernel zero times and copies
// each payload byte exactly once (the client's own StageIn/CollectOut memcpy,
// which IS the host<->staging copy).
//
// A Trip is not safe for concurrent use (the rings are strictly SPSC) —
// ipc.Session serializes trips with its own mutex.
type RingPlane struct {
	doorSeg shm.Segment
	sr      *shm.SessionRing
	door    *atomic.Uint32 // shard submission doorbell (rung after Push)
	doorOff uint32         // door's offset in doorSeg

	enc     frameEncoder
	rec     []byte   // retained contiguous-frame scratch
	resp    Response // retained decode target; backing arrays reused
	trips   int64
	timeout time.Duration
}

// openRingPlane attaches the rings laid out in a ring session's segment and
// the shard doorbell segment its header names. seg stays the caller's to
// close.
func openRingPlane(shmDir string, seg shm.Segment) (*RingPlane, error) {
	sr, err := shm.AttachSessionRing(seg)
	if err != nil {
		return nil, err
	}
	doorSeg, err := shm.OpenFile(shmDir, sr.DoorFile())
	if err != nil {
		return nil, fmt.Errorf("doorbell: %w", err)
	}
	p := &RingPlane{doorSeg: doorSeg, sr: sr}
	if _, err := p.doorbell(); err != nil {
		doorSeg.Close()
		return nil, err
	}
	return p, nil
}

// doorbell returns the shard doorbell the ring header names now. A move to
// another shard rewrites that offset (RingShard.join), so Trip re-reads it
// after every Push; DESIGN.md §3 ("The door a client rings") has the
// ordering argument. The offset comes from shared memory and is
// bounds-checked before use.
func (p *RingPlane) doorbell() (*atomic.Uint32, error) {
	if off := p.sr.DoorOff(); p.door == nil || off != p.doorOff {
		door, err := shm.DoorWordAt(p.doorSeg, off)
		if err != nil {
			return nil, fmt.Errorf("doorbell: %w", err)
		}
		p.door, p.doorOff = door, off
	}
	return p.door, nil
}

// SetTimeout bounds each Trip's wait for a response (0 = wait forever).
// The deadline is only consulted on the slow (parked) path, so the warm
// path never reads the clock.
func (p *RingPlane) SetTimeout(d time.Duration) { p.timeout = d }

// Trips returns how many ring round trips the plane has made.
func (p *RingPlane) Trips() int64 { return p.trips }

// Trip submits one request record and waits for its response record.
// The returned Response is owned by the plane and valid only until the
// next Trip (its strings are interned constants, its Batch backing is
// reused). Requests must not carry Data — ring payloads travel through
// the staging regions.
func (p *RingPlane) Trip(req *Request) (*Response, error) {
	if err := p.enc.encodeRequest(req); err != nil {
		return nil, err
	}
	p.rec = p.enc.flatten(p.rec[:0])
	p.enc.clearAliases()
	if len(p.rec) > p.sr.Sub.MaxRecord() {
		return nil, fmt.Errorf("transport: ring record %d bytes exceeds slot capacity %d", len(p.rec), p.sr.Sub.MaxRecord())
	}
	// Backpressure: the ring holds every frame a serial session can have
	// in flight, so a full ring means the daemon is behind (or gone) —
	// cold path, plain yields.
	var pushDeadline time.Time
	for spins := 0; !p.sr.Sub.Push(p.rec); spins++ {
		if spins < ringSpinBudget {
			runtime.Gosched()
			continue
		}
		if p.timeout > 0 {
			if pushDeadline.IsZero() {
				pushDeadline = time.Now().Add(p.timeout)
			} else if time.Now().After(pushDeadline) {
				return nil, fmt.Errorf("transport: ring submission stalled for %v (daemon hung or stopped?)", p.timeout)
			}
		}
		time.Sleep(50 * time.Microsecond)
	}
	door, err := p.doorbell()
	if err != nil {
		return nil, err
	}
	shm.DoorRing(door)
	p.trips++

	rec, err := p.awaitCpl()
	if err != nil {
		return nil, err
	}
	// Decode fully (strings interned, Batch backing reused, nothing
	// aliases the slot) before recycling it back to the daemon.
	derr := DecodeResponseBinaryInto(&p.resp, rec)
	p.sr.Cpl.Release()
	if derr != nil {
		return nil, derr
	}
	return &p.resp, nil
}

// awaitCpl waits for the next completion record: spin first (the daemon
// answers warm verbs in microseconds), then arm the client doorbell and
// park on it in bounded slices.
func (p *RingPlane) awaitCpl() ([]byte, error) {
	for i := 0; i < ringSpinBudget; i++ {
		if rec, ok := p.sr.Cpl.Peek(); ok {
			return rec, nil
		}
		runtime.Gosched()
	}
	var deadline time.Time
	if p.timeout > 0 {
		deadline = time.Now().Add(p.timeout)
	}
	door := p.sr.ClientDoor()
	for {
		armed := shm.DoorArm(door)
		// Re-check after arming: a completion published before the armed
		// bit was visible would otherwise be a lost wakeup.
		if rec, ok := p.sr.Cpl.Peek(); ok {
			shm.DoorDisarm(door)
			return rec, nil
		}
		shm.DoorSleep(door, armed, ringParkSlice)
		shm.DoorDisarm(door)
		if rec, ok := p.sr.Cpl.Peek(); ok {
			return rec, nil
		}
		if p.timeout > 0 && time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: ring: no response within %v (daemon hung or stopped?)", p.timeout)
		}
	}
}
