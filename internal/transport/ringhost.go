package transport

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"gpuvirt/internal/gvm"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/shm"
)

// RingHostConfig configures the daemon side of the ring control plane.
type RingHostConfig struct {
	// ShmDir is where the doorbell segment lives ("" = /dev/shm); it must
	// match the dispatcher's segment directory.
	ShmDir string
	// Shards is how many per-GPU sweep loops the daemon runs; each gets
	// its own doorbell word on its own cache line.
	Shards int
	// Metrics receives the ring instruments (nil creates a private
	// registry).
	Metrics *metrics.Registry
}

// RingHost is the daemon half of the zero-syscall control plane: one
// process-wide doorbell segment with a word per shard, plus a RingShard
// per owner loop that sweeps the shard's session rings. Clients ring a
// shard's doorbell after every submission; an owner that went idle and
// armed the sleep bit gets a futex wake, a busy owner sees nothing but
// the counter — the steady state is syscall-free on both sides. Every
// session's rings are shm.DefaultRingConfig's size.
type RingHost struct {
	doorSeg  shm.Segment
	doorName string
	shards   []*RingShard
}

// NewRingHost creates the doorbell segment and one RingShard per shard.
// The doorbell file is named SegPrefix + "<pid>-door<n>", so the daemon's
// startup sweep reclaims a crashed daemon's along with its session
// segments.
func NewRingHost(cfg RingHostConfig) (*RingHost, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	name := segName("door")
	seg, err := shm.NewFile(cfg.ShmDir, name, shm.DoorSegmentSize(cfg.Shards))
	if err != nil {
		return nil, fmt.Errorf("transport: ring doorbell segment: %w", err)
	}
	h := &RingHost{doorSeg: seg, doorName: name}
	h.shards = make([]*RingShard, cfg.Shards)
	for i := range h.shards {
		off := uint32(i * shm.DoorStride)
		door, derr := shm.DoorWordAt(seg, off)
		if derr != nil {
			seg.Close()
			return nil, derr
		}
		gpu := metrics.L("gpu", strconv.Itoa(i))
		rs := &RingShard{
			door:    door,
			off:     off,
			records: cfg.Metrics.Counter("gvmd_ring_records_total", "submission-ring records consumed", gpu),
			sweeps:  cfg.Metrics.Counter("gvmd_ring_sweeps_total", "ring sweeps that made progress", gpu),
			open:    cfg.Metrics.Gauge("gvmd_ring_sessions", "live ring-plane sessions", gpu),
		}
		// The doorbell word's upper 31 bits ARE the ring count, so the
		// counter comes for free (it wraps at 2^31 rings, like any u32-
		// backed counter would). It reads through counted, which Close
		// moves off the mapping.
		rs.counted.Store(door)
		cfg.Metrics.CounterFunc("gvmd_ring_doorbells_total", "shard submission doorbell rings", func() int64 {
			return int64(rs.counted.Load().Load() >> 1)
		}, gpu)
		h.shards[i] = rs
	}
	return h, nil
}

// Shard returns shard i's ring sweep state.
func (h *RingHost) Shard(i int) *RingShard { return h.shards[i] }

// Close unmaps every session segment still on a shard's sweep and the
// doorbell segment, whose counts it first copies for later scrapes. Call
// only once no turn can run on any shard anymore.
func (h *RingHost) Close() error {
	for _, rs := range h.shards {
		for _, s := range rs.sessions {
			s.unmap()
		}
		rs.sessions = nil
		final := new(atomic.Uint32)
		final.Store(rs.door.Load())
		rs.counted.Store(final)
	}
	return h.doorSeg.Close()
}

// RingAll rings every shard doorbell — the shutdown kick that pops
// parked owner loops out of their futex waits promptly.
func (h *RingHost) RingAll() {
	for _, rs := range h.shards {
		shm.DoorRing(rs.door)
	}
}

// RingShard is one shard's ring state: its doorbell word and the session
// rings its sweep walks. It is owner state — only a turn on the shard reads
// or changes it — so a session joins (Dispatcher's REQ bind and adopt
// turns), leaves (extract's turn) and is unmapped (the sweep after a retire)
// inside turns, and the sweep takes no lock.
type RingShard struct {
	door    *atomic.Uint32
	off     uint32                        // door's offset in the doorbell segment
	counted atomic.Pointer[atomic.Uint32] // door, then its final copy once Close unmaps it

	sessions []*ringSession

	records *metrics.Counter
	sweeps  *metrics.Counter
	open    *metrics.Gauge
}

// Door returns the shard's submission doorbell word.
func (rs *RingShard) Door() *atomic.Uint32 { return rs.door }

// join puts s on the shard's sweep, its frames to run on mgr, and rewrites
// the door offset in its ring header so the client rings this shard from its
// next submission on; a record it already pushed is found by this turn's
// sweep, which comes after the rewrite. Owner-only.
func (rs *RingShard) join(s *ringSession, mgr *gvm.Manager) {
	s.on, s.mgr = rs, mgr
	s.sr.SetDoorOff(rs.off)
	rs.sessions = append(rs.sessions, s)
	rs.open.Inc()
}

// Sweep retries completions waiting for ring space, gives every session's
// submission ring a consume pass, and unmaps the sessions retired since the
// last sweep after that last step. It reports whether it made progress; the
// shard's sweep loop keeps sweeping (interleaved with calendar drains) until
// a sweep comes back dry, then spins, then parks; a socket turn sweeps once
// after its work.
func (rs *RingShard) Sweep() bool {
	progress := false
	live := rs.sessions[:0]
	for _, s := range rs.sessions {
		if s.step(rs) {
			progress = true
		}
		if s.retired {
			rs.open.Dec()
			s.unmap()
			progress = true
			continue
		}
		live = append(live, s)
	}
	clear(rs.sessions[len(live):])
	rs.sessions = live
	if progress {
		rs.sweeps.Inc()
	}
	return progress
}

// ringSession is the ring front-end of one session: it consumes request
// frames from the submission ring, checks each is a frame for this session
// and nothing else, runs it through the session's frameRun, and produces
// the response frame on the completion ring. The rings live in the segment
// of the session's data plane (hostPlane.create). All fields but rh are
// owner-only.
type ringSession struct {
	rh   *RingHost
	host *hostSession
	on   *RingShard   // the shard sweeping the session; nil before join, between shards
	mgr  *gvm.Manager // on's manager
	sr   *shm.SessionRing

	enc  frameEncoder
	rec  []byte   // retained response-frame scratch
	req  Request  // retained decode target; Batch backing reused
	resp Response // retained answer to a BAT or a rejected record

	deliver func() // finish, bound once
	active  bool   // a frame is running (host.run)
	bat     bool
	pending bool // encoded response waiting for completion-ring space
	retired bool // the session is gone: on's next sweep unmaps the segment
}

// leave takes s off the sweep of the shard it is on, if any: the session is
// moving. Owner-only, in a turn on that shard.
func (s *ringSession) leave() {
	rs := s.on
	if rs == nil {
		return
	}
	if i := slices.Index(rs.sessions, s); i >= 0 {
		rs.sessions = slices.Delete(rs.sessions, i, i+1)
		rs.open.Dec()
	}
	s.on = nil
}

// retire ends the daemon's side of a retired session's rings. A ring on a
// shard's sweep is only marked — the retiring turn is on that shard, and its
// sweep unmaps the segment after the session's last step, so no sweep ever
// reads an unmapped ring; one on no sweep (never joined, or stranded between
// shards) has no reader and is unmapped at once.
func (s *ringSession) retire() {
	if s.on == nil {
		s.unmap()
		return
	}
	s.retired = true
}

// step is one pass of rs's sweep over the session: deliver a stalled
// completion first, then (when idle) consume the next submission.
func (s *ringSession) step(rs *RingShard) bool {
	progress := false
	if s.pending {
		if !s.sr.Cpl.Push(s.rec) {
			return false // still blocked on completion-ring space
		}
		s.pending = false
		shm.DoorRing(s.sr.ClientDoor())
		progress = true
	}
	for !s.active && !s.pending && !s.retired {
		rec, ok := s.sr.Sub.Peek()
		if !ok {
			break
		}
		progress = true
		rs.records.Inc()
		s.begin(rec)
	}
	return progress
}

// begin decodes and validates one submission record, recycles its slot,
// and starts executing it. The slot can be recycled immediately after
// decode: decode-into leaves no alias into the frame (verbs and planes
// intern, other strings copy) and ring requests must not carry Data.
func (s *ringSession) begin(rec []byte) {
	err := DecodeRequestBinaryInto(&s.req, rec)
	s.sr.Sub.Release()
	if err != nil {
		s.reject(fmt.Sprintf("transport: ring record: %v", err))
		return
	}
	run := &s.host.run
	id, verbs, bat, err := FrameSteps(&s.req, run.verbs)
	if err != nil {
		s.reject(err.Error())
		return
	}
	if id != s.host.id {
		s.reject(fmt.Sprintf("transport: ring record addresses session %d on session %d's ring", id, s.host.id))
		return
	}
	run.verbs, s.bat, s.active = verbs, bat, true
	run.start(s.host, s.mgr, s.deliver)
}

// reject answers a record that never reached execution (decode or
// validation errors) with a single ERR response.
func (s *ringSession) reject(msg string) {
	s.resp = Response{Status: "ERR", Session: s.host.id, Err: msg, VirtualMS: s.mgr.Env().Now().Milliseconds()}
	s.respond(&s.resp)
}

// finish answers the frame whose run just completed. After a ring RLS the
// session has retired and the next sweep unmaps it; the client's own
// mapping outlives ours, so it still reads the response.
func (s *ringSession) finish() {
	s.active = false
	s.respond(frameResponse(s.bat, s.host.run.resps, &s.resp))
}

// respond encodes a frame's response, pushes it to the completion ring
// (deferring to the sweep when the ring is full) and rings the client.
func (s *ringSession) respond(resp *Response) {
	if err := s.enc.encodeResponse(resp); err != nil {
		_ = s.enc.encodeResponse(&Response{Status: "ERR", Session: s.host.id, Err: err.Error()})
	}
	s.rec = s.enc.flatten(s.rec[:0])
	s.enc.clearAliases()
	if len(s.rec) > s.sr.Cpl.MaxRecord() {
		_ = s.enc.encodeResponse(&Response{
			Status: "ERR", Session: s.host.id,
			Err: fmt.Sprintf("transport: ring response %d bytes exceeds slot capacity %d", len(s.rec), s.sr.Cpl.MaxRecord()),
		})
		s.rec = s.enc.flatten(s.rec[:0])
		s.enc.clearAliases()
	}
	if s.sr.Cpl.Push(s.rec) {
		shm.DoorRing(s.sr.ClientDoor())
	} else {
		s.pending = true
	}
}

// unmap unmaps (and unlinks) the session segment; once per ring, by retire,
// the sweep or RingHost.Close.
func (s *ringSession) unmap() { _ = s.host.plane.seg.Close() }
