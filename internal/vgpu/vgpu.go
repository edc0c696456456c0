// Package vgpu is the paper's transport, both ends of it. VGPU is the
// user-process API layer of the virtualization infrastructure (paper Figure
// 7, top layer): it exposes a Virtual GPU to each SPMD process and drives
// the REQ/SND/STR/STP/RCV/RLS protocol of Figure 8 against the manager,
// handling shared-memory data exchange and handshake synchronization
// transparently. Host (host.go) is the manager process those clients talk
// to: the message queues, the per-session shared-memory segment and the
// WAIT poll of Section V, as a front-end of the gvm verb engine.
//
// This is the model the simulation (spmd, the experiments) runs — every
// message hop, the client's segment copy and the STP poll back-off charged
// in virtual time on top of what the engine charges — and the reference
// gvmd's front-ends are tested against. The daemon does not come through
// here: a real socket or ring pays its hops in wall-clock.
package vgpu

import (
	"errors"
	"fmt"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// The STP poll back-off (paper Figure 8: "If (WAIT), Resends STP"): 100 us,
// doubling, capped at 2 ms.
const (
	pollInitial = 100 * sim.Microsecond
	pollMax     = 2 * sim.Millisecond
)

// VGPU is one process's virtual GPU handle.
type VGPU struct {
	host    *Host
	spec    *task.Spec
	resp    *mqueue[response]
	session int
	seg     shm.Segment

	// Polls counts STP round-trips (reported as overhead statistics).
	Polls int
}

// Connect issues REQ and returns a ready VGPU. It blocks until the
// manager is up (clients arriving during manager initialization queue,
// they do not fail).
func (h *Host) Connect(p *sim.Proc, spec *task.Spec) (*VGPU, error) {
	return h.ConnectOpts(p, gvm.Request{Spec: spec})
}

// ConnectOpts issues a REQ that carries session options beside the task.
func (h *Host) ConnectOpts(p *sim.Proc, open gvm.Request) (*VGPU, error) {
	if open.Spec == nil {
		return nil, errors.New("vgpu: nil task spec")
	}
	v := &VGPU{
		host: h,
		spec: open.Spec,
		resp: newMqueue[response](h.mgr.Env(), h.cfg.MsgLatency),
	}
	h.req.send(p, request{verb: gvm.REQ, reply: v.resp, open: open})
	r := v.resp.recv(p)
	if r.status != gvm.ACK {
		return nil, fmt.Errorf("vgpu: REQ rejected: %s", r.err)
	}
	v.session = r.session
	v.seg = r.seg
	return v, nil
}

func (v *VGPU) call(p *sim.Proc, verb gvm.Verb) response {
	v.host.req.send(p, request{verb: verb, session: v.session, reply: v.resp})
	return v.resp.recv(p)
}

func (v *VGPU) ack(p *sim.Proc, verb gvm.Verb) error {
	r := v.call(p, verb)
	if r.status != gvm.ACK {
		return fmt.Errorf("vgpu: %v: %v %s", verb, r.status, r.err)
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
	p.Sleep(v.host.mgr.HostCopyTime(v.spec.InBytes))
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
	delay := pollInitial
	for {
		r := v.call(p, gvm.STP)
		v.Polls++
		switch r.status {
		case gvm.ACK:
			return nil
		case gvm.WAIT:
			p.Sleep(delay)
			delay *= 2
			if delay > pollMax {
				delay = pollMax
			}
		default:
			return fmt.Errorf("vgpu: STP: %s", r.err)
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
	p.Sleep(v.host.mgr.HostCopyTime(v.spec.OutBytes))
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
