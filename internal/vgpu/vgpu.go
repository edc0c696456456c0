// Package vgpu is the user-process API layer of the virtualization
// infrastructure (paper Figure 7, top layer): it exposes a Virtual GPU to
// each SPMD process and drives the REQ/SND/STR/STP/RCV/RLS protocol of
// Figure 8 against the manager, handling shared-memory data exchange and
// handshake synchronization transparently.
//
// This is the queue surface of the manager — the paper's model, with its
// message-queue hops, segment copies and STP polling charged in virtual
// time — and the reference the daemon's front-ends are tested against. The
// daemon itself does not come through here: it holds daemon sessions
// (gvm.Manager.OpenSession / DirectVerb), which skip the simulated hops a
// real socket or ring already pays in wall-clock.
package vgpu

import (
	"errors"
	"fmt"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// PollPolicy controls the STP status-polling loop (paper Figure 8:
// "If (WAIT), Resends STP").
type PollPolicy struct {
	Initial sim.Duration // first back-off delay
	Max     sim.Duration // back-off cap
	Factor  int          // multiplicative back-off (>= 1)
}

// DefaultPollPolicy backs off 100us -> 2ms, doubling.
func DefaultPollPolicy() PollPolicy {
	return PollPolicy{Initial: 100 * sim.Microsecond, Max: 2 * sim.Millisecond, Factor: 2}
}

// VGPU is one process's virtual GPU handle.
type VGPU struct {
	mgr     *gvm.Manager
	spec    *task.Spec
	resp    *gvm.Queue[gvm.Response]
	session int
	seg     shm.Segment
	poll    PollPolicy

	// Polls counts STP round-trips (reported as overhead statistics).
	Polls int
}

// Connect issues REQ and returns a ready VGPU. It blocks until the
// manager is up (clients arriving during manager initialization queue,
// they do not fail).
func Connect(p *sim.Proc, mgr *gvm.Manager, spec *task.Spec) (*VGPU, error) {
	return connect(p, mgr, spec, Opts{})
}

// Opts are the optional REQ parameters a client may attach when opening
// a session.
type Opts struct {
	// MemQuota is a hard per-session device-memory cap in bytes, enforced
	// by the manager at every allocation. 0 = unlimited.
	MemQuota int64
	// Priority orders eviction under memory pressure: lower-priority
	// sessions are evicted first. 0 is the default class.
	Priority int
	// Weight is the session's weighted-fair share of SM compute time and
	// its preemption precedence. 0 derives the weight from Priority.
	Weight int
}

// ConnectOpts issues REQ with explicit session options.
func ConnectOpts(p *sim.Proc, mgr *gvm.Manager, spec *task.Spec, o Opts) (*VGPU, error) {
	return connect(p, mgr, spec, o)
}

func connect(p *sim.Proc, mgr *gvm.Manager, spec *task.Spec, o Opts) (*VGPU, error) {
	if spec == nil {
		return nil, errors.New("vgpu: nil task spec")
	}
	v := &VGPU{
		mgr:  mgr,
		spec: spec,
		resp: gvm.NewQueue[gvm.Response](mgr.Env(), 0, mgr.MsgLatency()),
		poll: DefaultPollPolicy(),
	}
	mgr.RequestQueue().Send(p, gvm.Request{
		Verb: gvm.REQ, Spec: spec, Reply: v.resp,
		MemQuota: o.MemQuota, Priority: o.Priority, Weight: o.Weight,
	})
	r := v.resp.Recv(p)
	if r.Status != gvm.ACK {
		return nil, fmt.Errorf("vgpu: REQ rejected: %s", r.Err)
	}
	v.session = r.Session
	v.seg = mgr.Segment(r.Session)
	return v, nil
}

// SetPollPolicy overrides the STP polling back-off.
func (v *VGPU) SetPollPolicy(p PollPolicy) {
	if p.Factor < 1 {
		p.Factor = 1
	}
	if p.Initial <= 0 {
		p.Initial = sim.Microsecond
	}
	if p.Max < p.Initial {
		p.Max = p.Initial
	}
	v.poll = p
}

// Session returns the manager-assigned session id.
func (v *VGPU) Session() int { return v.session }

func (v *VGPU) call(p *sim.Proc, verb gvm.Verb) gvm.Response {
	// Reply rides along so even an unknown-session verb (a race with a
	// failover migration) gets an answer instead of parking forever.
	v.mgr.RequestQueue().Send(p, gvm.Request{Session: v.session, Verb: verb, Reply: v.resp})
	return v.resp.Recv(p)
}

func (v *VGPU) ack(p *sim.Proc, verb gvm.Verb) error {
	r := v.call(p, verb)
	if r.Status != gvm.ACK {
		return fmt.Errorf("vgpu: %v: %v %s", verb, r.Status, r.Err)
	}
	return nil
}

// SendInput copies the task's input into the shared-memory segment (a
// host memcpy on this process's time) and issues SND so the manager
// stages it into pinned memory. data may be nil in timing-only mode.
func (v *VGPU) SendInput(p *sim.Proc, data []byte) error {
	if data != nil && int64(len(data)) != v.spec.InBytes {
		return fmt.Errorf("vgpu: input is %d bytes, spec says %d", len(data), v.spec.InBytes)
	}
	p.Sleep(v.mgr.HostCopyTime(v.spec.InBytes))
	if data != nil && v.seg != nil {
		if err := v.seg.WriteAt(data, 0); err != nil {
			return err
		}
	}
	return v.ack(p, gvm.SND)
}

// Start issues STR. The call returns when the manager has flushed all
// parties' streams (the STR barrier), not when execution finishes.
func (v *VGPU) Start(p *sim.Proc) error { return v.ack(p, gvm.STR) }

// Wait polls STP until the VGPU's execution completes.
func (v *VGPU) Wait(p *sim.Proc) error {
	delay := v.poll.Initial
	for {
		r := v.call(p, gvm.STP)
		v.Polls++
		switch r.Status {
		case gvm.ACK:
			return nil
		case gvm.WAIT:
			p.Sleep(delay)
			delay *= sim.Duration(v.poll.Factor)
			if delay > v.poll.Max {
				delay = v.poll.Max
			}
		default:
			return fmt.Errorf("vgpu: STP: %s", r.Err)
		}
	}
}

// ReceiveOutput issues RCV and copies the results out of the
// shared-memory segment into buf (nil in timing-only mode).
func (v *VGPU) ReceiveOutput(p *sim.Proc, buf []byte) error {
	if buf != nil && int64(len(buf)) != v.spec.OutBytes {
		return fmt.Errorf("vgpu: output buffer is %d bytes, spec says %d", len(buf), v.spec.OutBytes)
	}
	if err := v.ack(p, gvm.RCV); err != nil {
		return err
	}
	p.Sleep(v.mgr.HostCopyTime(v.spec.OutBytes))
	if buf != nil && v.seg != nil {
		return v.seg.ReadAt(buf, v.spec.InBytes)
	}
	return nil
}

// Release issues RLS and invalidates the handle.
func (v *VGPU) Release(p *sim.Proc) error {
	err := v.ack(p, gvm.RLS)
	v.seg = nil
	return err
}

// RunCycle performs one full GPU execution cycle — send, start, wait,
// receive — which is the per-process cycle of the paper's Figures 5/6.
func (v *VGPU) RunCycle(p *sim.Proc, in, out []byte) error {
	if err := v.SendInput(p, in); err != nil {
		return err
	}
	if err := v.Start(p); err != nil {
		return err
	}
	if err := v.Wait(p); err != nil {
		return err
	}
	return v.ReceiveOutput(p, out)
}

// Suspend evacuates the VGPU's device state into the manager's host
// memory and releases its device memory (extension verb SUS, the
// facility of the paper's related work [9]). The session stays alive;
// Resume restores it.
func (v *VGPU) Suspend(p *sim.Proc) error { return v.ack(p, gvm.SUS) }

// Resume restores a suspended VGPU's device state (extension verb RES).
func (v *VGPU) Resume(p *sim.Proc) error { return v.ack(p, gvm.RES) }
