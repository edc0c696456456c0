package gpusim

import "gpuvirt/internal/sim"

// Stream is a CUDA stream: a FIFO of asynchronous device operations.
// Operations within a stream execute in order; operations in different
// streams of the same context may overlap (copy/compute overlap and
// concurrent kernels), which is exactly the mechanism the paper's GVM uses
// to overlap work from different SPMD processes.
//
// A dedicated runner process drains the FIFO; the issuing process returns
// immediately from EnqueueCB.
type Stream struct {
	ctx  *Context
	ops  *sim.Store[streamOp]
	idle *sim.Event // created lazily by Synchronize while the stream is busy
	busy int        // queued + in-flight operations
}

type streamOp struct {
	run func(p *sim.Proc)
	cb  func() // optional completion callback
}

// NewStream creates a stream in this context and starts its runner.
func (c *Context) NewStream() *Stream {
	c.mustLive()
	s := &Stream{ctx: c, ops: sim.NewStore[streamOp](c.dev.env, 0)}
	c.dev.env.Go(s.runner)
	return s
}

func (s *Stream) runner(p *sim.Proc) {
	p.Daemonize() // an idle runner waiting for work is not a deadlock
	for {
		op := s.ops.Get(p)
		if op.run == nil { // shutdown sentinel
			return
		}
		op.run(p)
		if op.cb != nil {
			op.cb()
		}
		s.busy--
		if s.busy == 0 && s.idle != nil {
			s.idle.Fire(nil)
			s.idle = nil
		}
	}
}

// Close shuts the runner down after all queued work completes.
func (s *Stream) Close() {
	s.ops.TryPut(streamOp{})
}

// EnqueueCB enqueues run with an optional completion callback. The GVM's
// flush hot path uses it with closures prebound at session setup so a
// steady-state cycle enqueues stream work without a single allocation. cb
// (may be nil) runs on the scheduler goroutine right after run completes.
func (s *Stream) EnqueueCB(run func(p *sim.Proc), cb func()) {
	s.busy++
	s.ops.TryPut(streamOp{run: run, cb: cb})
}

// Synchronize blocks the calling process until the stream drains.
func (s *Stream) Synchronize(p *sim.Proc) {
	for s.busy > 0 {
		if s.idle == nil {
			s.idle = s.ctx.dev.env.NewEvent()
		}
		p.Wait(s.idle)
	}
}
