package gvm

import (
	"fmt"
	"strings"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
)

// Session failover: ExtractSession packages a session's complete state —
// arena snapshot, staging bytes, options — off a faulted or draining
// shard, and AdoptSession rebuilds it, same id, on a healthy one. The
// pair reuses the eviction machinery (suspend.go): extraction is an
// eviction whose snapshot leaves the manager, adoption is an arrival in the
// evicted state whose restore materializes it. D2H copies work on a faulted
// device (only allocations and launches fail), so state is always
// evacuable.

// RetryableMark tags protocol error strings whose verb is safe to retry
// once after the dispatcher has migrated the session to a healthy shard.
// Clients substring-match it because every transport layer prefixes
// error strings ("vgpu: STP: ...", "ipc: STP (pipelined): ...").
const RetryableMark = "(retryable: session migrating)"

// Retryable marks an error message as safe to retry after failover.
func Retryable(msg string) string { return msg + " " + RetryableMark }

// IsRetryable reports whether a protocol error string carries the
// failover retry mark, however many transport prefixes wrap it.
func IsRetryable(msg string) bool { return strings.Contains(msg, RetryableMark) }

// retryableSessionErr is the response text verbs on a failed session
// answer with until the failover engine migrates it away.
func retryableSessionErr(id, gpu int, cause error) string {
	return Retryable(fmt.Sprintf("gvm: session %d failed on gpu %d: %v", id, gpu, cause))
}

// ExtractedSession is a session's portable state between ExtractSession
// on the source shard and AdoptSession on the target.
type ExtractedSession struct {
	ID int
	// Request is what the session was opened with; a cross-node adopter
	// rebuilds it from ADP's REQ fields.
	Request
	// PinIn/PinOut carry the pinned staging contents: SND input that
	// must survive to the rerun's H2D, and completed results that RCV
	// serves without re-touching the device.
	PinIn, PinOut []byte

	// phase is where the session stood in its cycle: a cycle the device
	// fault interrupted is a rerun (the target re-runs the flush, so the
	// client's in-flight poll completes with correct results). Where its
	// arena was does not travel: every adoption restores it.
	phase phase
	snap  *snapshot
}

// State names the state the session left its shard in (DESIGN.md §3).
func (e *ExtractedSession) State() string { return phaseNames[e.phase] }

// Bytes is node_migrated_bytes_total's unit: the buffers a MIG blob carries,
// and a WritesIn input arena, which only an in-node move hands over.
func (e *ExtractedSession) Bytes() int64 {
	n := int64(len(e.snap.in))
	for _, b := range e.buffers() {
		n += int64(len(b))
	}
	return n
}

// ExtractSession quiesces session id at its next verb boundary,
// snapshots its device arenas (an eviction) and staging buffers, and
// removes it from this manager without the close accounting — the session
// is moving, not ending. Must run on the manager's owner goroutine with a
// live process p (the evacuation D2H is charged on p's clock).
//
// No verb reaches the session while the evacuation's copies sleep, so it
// spends them evicted rather than in a residency of its own: a front-end
// extracts as cold work in one owner turn (transport.Dispatcher.extract),
// whose env.Run drains the extraction before that turn's ring sweep. The
// frame in flight has answered already (abortRun), a ring session has left
// the sweep, and a socket frame waits behind the session's migMu.
//
// A session parked at the STR barrier cannot keep waiting (its barrier
// peers are being migrated too): its unacknowledged STR completes with
// a retryable error and the session leaves as idle — the client
// re-issues STR on the target after failover.
func (m *Manager) ExtractSession(p *sim.Proc, id int) (*ExtractedSession, error) {
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("gvm: ExtractSession: unknown session %d", id)
	}
	for i, bs := range m.strPending {
		if bs != s {
			continue
		}
		m.strPending = append(m.strPending[:i], m.strPending[i+1:]...)
		s.st.phase = idle
		s.tell(STR, ERR, Retryable(fmt.Sprintf("gvm: session %d leaving the STR barrier: migrating off gpu %d", s.id, m.cfg.GPUIndex)))
		break
	}

	// Quiesce an in-flight flush. On a hang/fatal-faulted device the
	// scheduler has already aborted the kernels, so the stream drains in
	// copy time; on a draining healthy shard the cycle completes
	// normally. The wait is virtual and bounded.
	const quiesceMax = 60 * sim.Second
	delay := 100 * sim.Microsecond
	var waited sim.Duration
	for s.st.phase == running {
		if waited >= quiesceMax {
			return nil, fmt.Errorf("gvm: ExtractSession: session %d still running after %v", id, quiesceMax)
		}
		p.Sleep(delay)
		waited += delay
		if delay < 10*sim.Millisecond {
			delay *= 2
		}
	}

	m.waitSettled(p, s)
	if m.sessions[id] != s {
		return nil, fmt.Errorf("gvm: ExtractSession: session %d was released while it quiesced", id)
	}
	ph := s.st.phase
	switch ph {
	case failed:
		ph = rerun
	case abandoned:
		ph = idle // the kernel's error stays behind with the cycle
	}
	if s.st.res == resident {
		m.suspendSession(p, s)
	}
	snap := s.snap // the session's own is dropped with it below
	ext := &ExtractedSession{
		ID:      s.id,
		Request: Request{Spec: s.spec, Priority: s.priority, Weight: s.weight},
		phase:   ph, snap: &snap,
	}
	if s.pinIn != nil && s.pinIn.Data() != nil {
		ext.PinIn = append([]byte(nil), s.pinIn.Data()...)
	}
	if s.pinOut != nil && s.pinOut.Data() != nil {
		ext.PinOut = append([]byte(nil), s.pinOut.Data()...)
	}

	// Remove without sessionsClosed credit: openSessions moves shards,
	// opened/closed totals see one lifetime.
	m.teardown(s) // the arenas already left with the snapshot; this frees their addresses
	delete(m.sessions, s.id)
	m.met.openSessions.Dec()
	if m.log != nil {
		m.log.Info("gvm extract", "session", ext.ID, "gpu", m.cfg.GPUIndex,
			"bytes", ext.Bytes(), "state", ext.State())
	}
	return ext, nil
}

// AdoptSession installs an extracted session on this manager under ext.ID,
// or, when ext.ID is 0 (a session off the wire, whose source-node id may
// collide with a live local one), under a freshly minted id it writes back
// to ext.ID. Like an opened session it needs a BindDirect before it takes
// verbs. Its buffers get addresses off the card and its kernels and flush
// ops are built against them once; the snapshot then goes back on the card
// exactly as an evicted session's does: it arrives evicted and is
// materialized eagerly; if the target is too loaded to restore right now
// the snapshot stays intact and the next verb's transparent restore retries
// — adoption itself only fails on an id collision (impossible under the
// node's striped id scheme) or a buffer that is not the size ext.Spec gives
// it, and then mints nothing. The session was admitted on its source shard
// and the node re-placed it against this shard's headroom, so no quota
// re-check.
func (m *Manager) AdoptSession(p *sim.Proc, ext *ExtractedSession) error {
	if _, exists := m.sessions[ext.ID]; exists {
		return fmt.Errorf("gvm: AdoptSession: session id %d already live on gpu %d", ext.ID, m.cfg.GPUIndex)
	}
	if err := ext.size(m.dev.RoundUp); err != nil {
		return fmt.Errorf("gvm: AdoptSession: session %d: %w", ext.ID, err)
	}
	s := &session{
		spec:     ext.Spec,
		priority: ext.Priority, weight: sessionWeight(ext.Request),
		lastUsed: p.Now(),
		st:       state{ext.phase, evicted},
		// The footprint is what OpenSession charged; the build reserves the
		// device bytes as it asks for them.
		footprint: ext.Spec.InBytes + ext.Spec.OutBytes,
	}
	m.shmInUse += s.footprint
	if err := m.build(s, &sessionAllocator{m: m, s: s, offCard: true}); err != nil {
		m.teardown(s)
		return fmt.Errorf("gvm: AdoptSession: session %d: %w", ext.ID, err)
	}
	if ext.ID == 0 {
		ext.ID = m.mintSessionID()
	}
	s.id = ext.ID
	s.snap = *ext.snap
	s.snap.settled = nil // the source shard's
	for len(s.snap.scratch) < len(s.scratch) {
		s.snap.scratch = append(s.snap.scratch, nil) // built beyond what travelled: placed zeroed
	}
	s.snap.total = s.devBytes
	s.susp = &s.snap
	m.bindClassMetrics(s)
	// Staging is the snapshot's own buffers (no copy), and the restore puts
	// the staged arenas on it: an inline session keeps them, a mapped plane
	// rebinds onto its segment, which held the same bytes all along.
	s.pinIn = m.newStaging(ext.Spec.InBytes, ext.PinIn)
	s.pinOut = m.newStaging(ext.Spec.OutBytes, ext.PinOut)
	m.sessions[s.id] = s
	m.met.openSessions.Inc()
	if err := m.restoreWithBackoff(p, s); err != nil {
		// Lazy path: the snapshot is intact, the next verb retries.
		if m.log != nil {
			m.log.Warn("gvm adopt: deferred restore", "session", s.id, "gpu", m.cfg.GPUIndex, "err", err)
		}
		return nil
	}
	// A pending rerun is NOT replayed here: the client may already be
	// re-issuing its whole batch, and its SND stages bytes into pinned
	// memory on the connection goroutine — racing an adoption-started
	// flush's H2D read. The protocol resolves the rerun on the client's next
	// verb instead (state.step), where staging and flush are serialized: an
	// SND or STR supersedes the interrupted cycle, an STP or RCV replays it.
	if m.log != nil {
		m.log.Info("gvm adopt", "session", s.id, "gpu", m.cfg.GPUIndex, "state", ext.State())
	}
	return nil
}

// size gives the snapshot the sizes e.Spec allocates on a device that
// rounds allocations with roundUp — the scratch its builder asks for, run
// dry against an allocator that only records sizes — and holds every
// buffer to them: each is absent (a timing-only source) or fills its
// allocation, from the bytes asked for up to the rounded size, and staging
// is exactly the spec's. A restore makes a scratch buffer, in order, device
// memory as it is, so a short one would fault the first kernel that runs
// off its end; staging becomes the session's staging, and its input and
// output arenas' memory, as it is.
func (e *ExtractedSession) size(roundUp func(int64) int64) error {
	var asked sizeRecorder
	if e.Spec.Build != nil {
		var scratch []cuda.DevPtr
		if _, err := e.Spec.Build(&task.Buffers{In: 1, Out: 1, Alloc: &asked, Scratch: &scratch}); err != nil {
			return err
		}
	}
	sn := e.snap
	if len(sn.scratch) > len(asked) {
		return fmt.Errorf("%d scratch buffers, the task builds %d", len(sn.scratch), len(asked))
	}
	sn.scrSizes = sn.scrSizes[:0]
	for i := range sn.scratch {
		sn.scrSizes = append(sn.scrSizes, roundUp(asked[i]))
	}
	ask := append([]int64{e.Spec.InBytes, e.Spec.OutBytes}, asked...)
	want := append([]int64{e.Spec.InBytes, e.Spec.OutBytes}, sn.scrSizes...)
	for i, b := range e.buffers() {
		if n := int64(len(b)); b != nil && (n < ask[i] || n > want[i]) {
			return fmt.Errorf("buffer %d (staged in, staged out, scratch...) is %d bytes, the task allocates %d",
				i, len(b), want[i])
		}
	}
	return nil
}

// sizeRecorder is a dry build's allocator: the sizes asked for, in order.
type sizeRecorder []int64

func (r *sizeRecorder) Malloc(n int64) (cuda.DevPtr, error) {
	*r = append(*r, n)
	return 1, nil
}

// rerunFlush re-runs an interrupted cycle on a freshly restored session:
// the kernels are deterministic functions of the (migrated) staging
// input, so the re-run reproduces the exact bytes the aborted flush
// would have produced. The flush completes asynchronously as the shard's
// calendar drains; the client's STP poll observes completion as usual.
func (m *Manager) rerunFlush(s *session) {
	s.st.phase = running
	s.strArrived = m.env.Now()
	m.flush(s)
}
