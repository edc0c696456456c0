package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/kernels"
	"gpuvirt/internal/node"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
)

// timeOp returns the median ns per call of fn: the batch size is grown
// until one batch fills a fifteenth of the budget, then fifteen batches
// are timed.
func timeOp(budget time.Duration, fn func()) float64 {
	const batches = 15
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= budget/batches || iters >= 1<<24 {
			break
		}
		iters *= 2
	}
	per := make([]int64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = int64(time.Since(t0)) * 1000 / int64(iters) // ps, to keep sub-ns digits
	}
	slices.Sort(per)
	return quantile(per, 0.5) / 1000
}

// cycleFrames builds the BAT request and response one pipelined cycle of
// the workload puts on the wire (or in the ring): four sub-requests,
// with the payloads aboard when the data plane is inline.
func cycleFrames(sp spec) (transport.Request, transport.Response) {
	req := transport.Request{Verb: "BAT", Session: 1, Batch: []transport.Request{
		{Verb: "SND", Session: 1}, {Verb: "STR", Session: 1}, {Verb: "STP", Session: 1}, {Verb: "RCV", Session: 1}}}
	ack := transport.Response{Status: "ACK", Session: 1, VirtualMS: 12.5}
	resp := transport.Response{Status: "ACK", Session: 1, VirtualMS: 12.5, Batch: []transport.Response{ack, ack, ack, ack}}
	if sp.scheme == "tcp" {
		req.Batch[0].Data = make([]byte, sp.inBytes())
		resp.Batch[3].Data = make([]byte, sp.outBytes())
	}
	return req, resp
}

// flatMem is device memory for a bare cuda.Executor: one flat slice.
type flatMem []byte

func (m flatMem) Bytes(p cuda.DevPtr, n int64) []byte { return m[p : int64(p)+n] }

// layerBenches times each layer's public entry points in isolation, with
// the workload's frame and payload sizes where the layer sees them.
// budget is the time each measurement may take.
func layerBenches(r *report, sp spec, dir string, budget time.Duration) error {
	// transport: the binary frame codec on this workload's cycle frames.
	req, resp := cycleFrames(sp)
	reqFrame, err := transport.EncodeRequestBinary(nil, req)
	if err != nil {
		return err
	}
	respFrame, err := transport.EncodeResponseBinary(nil, resp)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(reqFrame)+len(respFrame))
	var codecErr error
	note := fmt.Sprintf("BAT frame of %d B", len(reqFrame))
	r.add("transport.encode_req_ns", timeOp(budget, func() {
		if _, err := transport.EncodeRequestBinary(buf[:0], req); err != nil {
			codecErr = err
		}
	}), "ns", note)
	var dreq transport.Request
	r.add("transport.decode_req_ns", timeOp(budget, func() {
		if err := transport.DecodeRequestBinaryInto(&dreq, reqFrame); err != nil {
			codecErr = err
		}
	}), "ns", note)
	note = fmt.Sprintf("BAT frame of %d B", len(respFrame))
	r.add("transport.encode_resp_ns", timeOp(budget, func() {
		if _, err := transport.EncodeResponseBinary(buf[:0], resp); err != nil {
			codecErr = err
		}
	}), "ns", note)
	var dresp transport.Response
	r.add("transport.decode_resp_ns", timeOp(budget, func() {
		if err := transport.DecodeResponseBinaryInto(&dresp, respFrame); err != nil {
			codecErr = err
		}
	}), "ns", note)
	if codecErr != nil {
		return fmt.Errorf("frame codec: %w", codecErr)
	}
	r.add("transport.frame_bytes_per_cycle", float64(len(reqFrame)+len(respFrame)), "B", "request + response frame of one cycle, exact")

	// shm: one record through a session ring (producer and consumer views
	// of the same segment), and a staging copy into a file segment.
	cfg := shm.DefaultRingConfig()
	seg := shm.NewMemory(shm.RingSegmentSize(cfg, 0, 0), true)
	host, err := shm.InitSessionRing(seg, cfg, 0, 0, "door", 0)
	if err != nil {
		return err
	}
	peer, err := shm.AttachSessionRing(seg)
	if err != nil {
		return err
	}
	rec := reqFrame
	if len(rec) > peer.Sub.MaxRecord() {
		rec = rec[:peer.Sub.MaxRecord()]
	}
	ringOK := true
	r.add("shm.ring_push_pop_ns", timeOp(budget, func() {
		pushed := peer.Sub.Push(rec)
		_, peeked := host.Sub.Peek()
		host.Sub.Release()
		ringOK = ringOK && pushed && peeked
	}), "ns", fmt.Sprintf("Push+Peek+Release of a %d B record", len(rec)))
	if !ringOK {
		return fmt.Errorf("shm ring dropped a record")
	}
	const copyBytes = 8 << 20
	file, err := shm.NewFile(dir, "gvmload-copy", copyBytes)
	if err != nil {
		return err
	}
	src := make([]byte, copyBytes)
	var copyErr error
	ns := timeOp(budget, func() {
		if err := file.WriteAt(src, 0); err != nil {
			copyErr = err
		}
	})
	if err := file.Close(); err != nil || copyErr != nil {
		return fmt.Errorf("shm segment copy: %v %v", copyErr, err)
	}
	r.add("shm.copy_8mib_gbps", copyBytes/ns, "GB/s", "WriteAt of 8 MiB into a file segment in "+filepath.Base(dir))

	// node: one placement decision over 4 and over 64 candidates.
	for _, k := range []int{4, 64} {
		placer, err := node.NewPlacer("least-sessions", "GPU")
		if err != nil {
			return err
		}
		loads := make([]node.Load, k)
		for i := range loads {
			loads[i] = node.Load{Shard: i, Sessions: int64(i % 7), MemFree: 1 << 30}
		}
		var selErr error
		r.add(fmt.Sprintf("node.select_%d_ns", k), timeOp(budget, func() {
			if _, err := placer.Select(loads, int64(sp.inBytes()+sp.outBytes())); err != nil {
				selErr = err
			}
		}), "ns", "Placer.Select, least-sessions")
		if selErr != nil {
			return selErr
		}
	}

	// sim: the event calendar, per timer scheduled and fired.
	const events = 1024
	env := sim.NewEnv()
	var simErr error
	fired := 0
	r.add("sim.calendar_ns_per_event", timeOp(budget, func() {
		for i := 0; i < events; i++ {
			env.After(sim.Duration(1+i%17), func() { fired++ })
		}
		if err := env.Run(); err != nil {
			simErr = err
		}
	})/events, "ns", "Env.After + Run over 1024 timers")
	if simErr != nil || fired == 0 {
		return fmt.Errorf("sim calendar: fired %d: %v", fired, simErr)
	}

	// cuda/kernels: the functional vecadd body at both message sizes.
	ex := cuda.NewExecutor(0)
	var runErr error
	vecadd := func(n int) float64 {
		const base = 256
		mem := make(flatMem, base+12*n)
		k := kernels.NewVecAdd(base, cuda.DevPtr(base+4*n), cuda.DevPtr(base+8*n), n)
		return timeOp(budget, func() {
			if err := ex.Run(k, mem); err != nil {
				runErr = err
			}
		})
	}
	r.add("cuda.exec_vecadd_ns", vecadd(1024), "ns", fmt.Sprintf("Executor.Run, n=1024, %d workers", ex.Workers()))
	r.add("cuda.exec_vecadd_gbps", 12*float64(1<<20)/vecadd(1<<20), "GB/s", "Executor.Run, n=2^20, computed as 12 B per element")
	return runErr
}
