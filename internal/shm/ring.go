package shm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file lays out the zero-syscall control plane: per-session lock-free
// SPSC submission and completion rings living inside an ordinary shm
// segment, plus the futex-backed doorbells that let both sides sleep when
// idle. The layout replaces the paper's POSIX message queues (its Figure 7
// control plane) with a path where a warm verb round trip is a handful of
// cache-line operations and no kernel crossings.
//
// Each ring is a power-of-two array of fixed-size slots in Vyukov
// sequence-slot style: slot i carries a sequence word initialized to i.
// The producer at position p claims slot p&mask when its sequence equals
// p, writes the record, and publishes by storing p+1; the consumer at
// position p consumes when the sequence equals p+1 and recycles the slot
// by storing p+slotCount, which is exactly what the producer expects on
// its next lap. Positions live in each side's private memory — only the
// sequence words are shared — so a corrupted (or hostile) peer can stall
// its own ring but can never redirect the other side outside its own slot
// array: every index is masked before use and every record length is
// bounds-checked against the slot.
//
// Because each ring has exactly one producer and one consumer, the
// sequence word needs plain loads and stores with acquire/release order —
// no CAS anywhere on the hot path. Go's sync/atomic provides sequentially
// consistent operations, which are strictly stronger.
//
// All shared atomics are 32-bit so the layout is safe on GOARCH=386
// (64-bit header fields exist but are written once before publication and
// read non-atomically after validation).

// Ring geometry and header field offsets. The header occupies one page;
// the doorbell word sits on its own cache line.
const (
	ringMagic   = 0x47525631 // "1VRG" little-endian
	ringVersion = 1

	ringHdrSize = 4096
	slotHdrSize = 8 // seq u32 + len u32

	offMagic     = 0
	offVersion   = 4
	offSlotCount = 8
	offSlotSize  = 12
	offSubOff    = 16
	offCplOff    = 24
	offInOff     = 32
	offInBytes   = 40
	offOutOff    = 48
	offOutBytes  = 56
	offDoorOff   = 64
	offDoorFile  = 68 // u8 length + bytes, within the header page
	maxDoorFile  = 186

	offClientDoor = 512 // server→client completion doorbell (own cache line)
)

// Package-wide futex counters: the syscall evidence behind the
// zero-syscall acceptance test. A warm pipelined ring cycle must leave
// both untouched.
var (
	futexWaits atomic.Int64
	futexWakes atomic.Int64
)

// FutexStats returns how many futex waits and wakes the ring doorbells
// have performed since process start.
func FutexStats() (waits, wakes int64) { return futexWaits.Load(), futexWakes.Load() }

// RingConfig sizes a session's rings.
type RingConfig struct {
	// Slots is the slot count per ring; must be a power of two.
	Slots int
	// SlotSize is the bytes per slot including the 8-byte slot header;
	// must be a multiple of 64 (whole cache lines, so adjacent slots never
	// share a line). The largest record a slot carries is SlotSize-8.
	SlotSize int
}

// DefaultRingConfig holds 64 records of up to 504 bytes per direction —
// 64 KiB of ring per session — which fits every pipelined verb batch the
// client emits with room for deep pipelining.
func DefaultRingConfig() RingConfig { return RingConfig{Slots: 64, SlotSize: 512} }

func (c RingConfig) validate() error {
	if c.Slots < 1 || c.Slots&(c.Slots-1) != 0 || c.Slots > 1<<16 {
		return fmt.Errorf("shm: ring slot count %d: want a power of two in [1, 65536]", c.Slots)
	}
	if c.SlotSize < 64 || c.SlotSize%64 != 0 || c.SlotSize > 1<<20 {
		return fmt.Errorf("shm: ring slot size %d: want a multiple of 64 in [64, 1MiB]", c.SlotSize)
	}
	return nil
}

// RingSegmentSize returns the segment size needed for a session ring with
// the given geometry and staging capacities.
func RingSegmentSize(c RingConfig, inBytes, outBytes int64) int64 {
	ring := int64(c.Slots) * int64(c.SlotSize)
	return ringHdrSize + 2*ring + inBytes + outBytes
}

// Ring is one direction of a session ring: a single-producer
// single-consumer slot array. The position field is private to the side
// using the ring, so a Ring value must not be shared between goroutines.
type Ring struct {
	slots    []byte
	mask     uint32
	slotSize uint32
	pos      uint32
}

// MaxRecord returns the largest record one slot carries.
func (r *Ring) MaxRecord() int { return int(r.slotSize) - slotHdrSize }

func (r *Ring) slot(pos uint32) []byte {
	off := (pos & r.mask) * r.slotSize
	return r.slots[off : off+r.slotSize]
}

// Push publishes rec into the next slot. It returns false when the record
// exceeds MaxRecord or the ring is full (the consumer has not recycled
// the slot yet) — the producer's backpressure signal.
func (r *Ring) Push(rec []byte) bool {
	if len(rec) > r.MaxRecord() {
		return false
	}
	slot := r.slot(r.pos)
	seq := u32at(slot, 0)
	if seq.Load() != r.pos {
		return false
	}
	binary.LittleEndian.PutUint32(slot[4:8], uint32(len(rec)))
	copy(slot[slotHdrSize:], rec)
	seq.Store(r.pos + 1) // release: publish record to the consumer
	r.pos++
	return true
}

// Peek returns the record at the head of the ring without consuming it,
// or false when the ring is empty. The returned slice aliases the slot;
// it is valid until Release. A corrupted length never escapes the slot:
// it is clamped by the bounds check and reported as empty.
func (r *Ring) Peek() ([]byte, bool) {
	slot := r.slot(r.pos)
	if u32at(slot, 0).Load() != r.pos+1 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(slot[4:8])
	if int(n) > r.MaxRecord() {
		return nil, false
	}
	return slot[slotHdrSize : slotHdrSize+n], true
}

// Release recycles the slot Peek returned, handing it back to the
// producer for its next lap. Call only after a successful Peek.
func (r *Ring) Release() {
	slot := r.slot(r.pos)
	u32at(slot, 0).Store(r.pos + r.mask + 1) // pos + slotCount
	r.pos++
}

// SessionRing is one session's full control-plane surface inside a shared
// segment: submission ring (client→server), completion ring
// (server→client), staging regions, and the client's completion doorbell.
// The server side also records which shard doorbell segment clients must
// ring after a submission.
type SessionRing struct {
	Sub Ring // client produces, server consumes
	Cpl Ring // server produces, client consumes

	in, out    []byte
	clientDoor *atomic.Uint32
	doorOff    *atomic.Uint32 // the header word naming the shard doorbell
	doorFile   string
}

// In returns the input staging region (nil when the session moves no
// input bytes).
func (s *SessionRing) In() []byte { return s.in }

// Out returns the output staging region.
func (s *SessionRing) Out() []byte { return s.out }

// ClientDoor returns the completion doorbell the server rings after
// pushing to the completion ring.
func (s *SessionRing) ClientDoor() *atomic.Uint32 { return s.clientDoor }

// DoorFile names the shard doorbell segment the client must ring after a
// submission; DoorOff is the doorbell word's byte offset inside it.
func (s *SessionRing) DoorFile() string { return s.doorFile }

// DoorOff returns the shard doorbell's byte offset within DoorFile, as the
// header names it now: an atomic load, because the daemon rewrites it when
// the session moves to another shard. Untrusted: check it before use.
func (s *SessionRing) DoorOff() uint32 { return s.doorOff.Load() }

// SetDoorOff points the session's client at another shard doorbell of the
// same DoorFile: the server side stores it when it moves the session, and
// the client's next DoorOff load sees it.
func (s *SessionRing) SetDoorOff(off uint32) { s.doorOff.Store(off) }

func u32at(b []byte, off int) *atomic.Uint32 {
	return (*atomic.Uint32)(unsafe.Pointer(&b[off]))
}

func ringBuf(seg Segment) ([]byte, error) {
	buf := seg.Bytes()
	if len(buf) == 0 {
		return nil, fmt.Errorf("shm: session rings need a mapped segment (timing-only or unmapped segment given)")
	}
	if uintptr(unsafe.Pointer(&buf[0]))%4 != 0 {
		return nil, fmt.Errorf("shm: segment base not 4-byte aligned")
	}
	return buf, nil
}

// InitSessionRing lays a fresh session ring out inside seg (the server
// side owns initialization). doorFile/doorOff name the shard doorbell the
// client rings after each submission.
func InitSessionRing(seg Segment, c RingConfig, inBytes, outBytes int64, doorFile string, doorOff uint32) (*SessionRing, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(doorFile) > maxDoorFile {
		return nil, fmt.Errorf("shm: doorbell segment name %q too long", doorFile)
	}
	need := RingSegmentSize(c, inBytes, outBytes)
	buf, err := ringBuf(seg)
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) < need {
		return nil, fmt.Errorf("shm: segment is %d bytes, ring layout needs %d", len(buf), need)
	}
	ring := int64(c.Slots) * int64(c.SlotSize)
	subOff := int64(ringHdrSize)
	cplOff := subOff + ring
	inOff := cplOff + ring
	outOff := inOff + inBytes

	le := binary.LittleEndian
	le.PutUint32(buf[offMagic:], ringMagic)
	le.PutUint32(buf[offVersion:], ringVersion)
	le.PutUint32(buf[offSlotCount:], uint32(c.Slots))
	le.PutUint32(buf[offSlotSize:], uint32(c.SlotSize))
	le.PutUint64(buf[offSubOff:], uint64(subOff))
	le.PutUint64(buf[offCplOff:], uint64(cplOff))
	le.PutUint64(buf[offInOff:], uint64(inOff))
	le.PutUint64(buf[offInBytes:], uint64(inBytes))
	le.PutUint64(buf[offOutOff:], uint64(outOff))
	le.PutUint64(buf[offOutBytes:], uint64(outBytes))
	buf[offDoorFile] = byte(len(doorFile))
	copy(buf[offDoorFile+1:], doorFile)

	sr := &SessionRing{
		clientDoor: u32at(buf, offClientDoor),
		doorOff:    u32at(buf, offDoorOff),
		doorFile:   doorFile,
	}
	sr.clientDoor.Store(0)
	sr.doorOff.Store(doorOff)
	initRing(&sr.Sub, buf[subOff:subOff+ring], c)
	initRing(&sr.Cpl, buf[cplOff:cplOff+ring], c)
	if inBytes > 0 {
		sr.in = buf[inOff : inOff+inBytes]
	}
	if outBytes > 0 {
		sr.out = buf[outOff : outOff+outBytes]
	}
	return sr, nil
}

func initRing(r *Ring, slots []byte, c RingConfig) {
	r.slots = slots
	r.mask = uint32(c.Slots - 1)
	r.slotSize = uint32(c.SlotSize)
	for i := 0; i < c.Slots; i++ {
		u32at(slots, i*c.SlotSize).Store(uint32(i))
	}
}

// AttachSessionRing binds the client side of a session ring laid out by
// InitSessionRing, validating the header before trusting any of it: bad
// magic/version/geometry or any region escaping the segment is an error,
// never a panic.
func AttachSessionRing(seg Segment) (*SessionRing, error) {
	buf, err := ringBuf(seg)
	if err != nil {
		return nil, err
	}
	if len(buf) < ringHdrSize {
		return nil, fmt.Errorf("shm: segment too small for a ring header (%d bytes)", len(buf))
	}
	le := binary.LittleEndian
	if got := le.Uint32(buf[offMagic:]); got != ringMagic {
		return nil, fmt.Errorf("shm: ring magic %#x, want %#x", got, ringMagic)
	}
	if got := le.Uint32(buf[offVersion:]); got != ringVersion {
		return nil, fmt.Errorf("shm: ring version %d, want %d", got, ringVersion)
	}
	c := RingConfig{
		Slots:    int(le.Uint32(buf[offSlotCount:])),
		SlotSize: int(le.Uint32(buf[offSlotSize:])),
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	ring := uint64(c.Slots) * uint64(c.SlotSize)
	subOff := le.Uint64(buf[offSubOff:])
	cplOff := le.Uint64(buf[offCplOff:])
	inOff := le.Uint64(buf[offInOff:])
	inBytes := le.Uint64(buf[offInBytes:])
	outOff := le.Uint64(buf[offOutOff:])
	outBytes := le.Uint64(buf[offOutBytes:])
	size := uint64(len(buf))
	for _, reg := range [...][2]uint64{
		{subOff, ring}, {cplOff, ring}, {inOff, inBytes}, {outOff, outBytes},
	} {
		if reg[0] < ringHdrSize || reg[0]+reg[1] < reg[0] || reg[0]+reg[1] > size {
			return nil, fmt.Errorf("shm: ring region [%d,+%d) escapes the %d-byte segment", reg[0], reg[1], size)
		}
		if reg[0]%4 != 0 {
			return nil, fmt.Errorf("shm: ring region offset %d not 4-byte aligned", reg[0])
		}
	}
	nameLen := int(buf[offDoorFile])
	if nameLen > maxDoorFile {
		return nil, fmt.Errorf("shm: doorbell segment name length %d out of range", nameLen)
	}
	sr := &SessionRing{
		clientDoor: u32at(buf, offClientDoor),
		doorOff:    u32at(buf, offDoorOff),
		doorFile:   string(buf[offDoorFile+1 : offDoorFile+1+nameLen]),
	}
	initRingAttach(&sr.Sub, buf[subOff:subOff+ring], c)
	initRingAttach(&sr.Cpl, buf[cplOff:cplOff+ring], c)
	if inBytes > 0 {
		sr.in = buf[inOff : inOff+inBytes]
	}
	if outBytes > 0 {
		sr.out = buf[outOff : outOff+outBytes]
	}
	return sr, nil
}

// initRingAttach binds an already-initialized ring without resetting the
// sequence words (the server did that once).
func initRingAttach(r *Ring, slots []byte, c RingConfig) {
	r.slots = slots
	r.mask = uint32(c.Slots - 1)
	r.slotSize = uint32(c.SlotSize)
}

// Doorbell protocol: the word's bit 0 is the "consumer is sleeping" flag;
// the upper 31 bits count rings. A producer bumps the counter and only
// pays the futex wake when a sleeper is armed, so the steady busy state
// does zero syscalls.

// DoorRing bumps the doorbell after pushing work and wakes the consumer
// if it armed the sleep bit.
func DoorRing(d *atomic.Uint32) {
	if d.Add(2)&1 != 0 {
		futexWake(d)
	}
}

// DoorArm sets the sleep bit and returns the armed word. The caller must
// re-check its rings for work published before the bit was visible, and
// only then DoorSleep on the returned value — the re-check closes the
// lost-wakeup window.
func DoorArm(d *atomic.Uint32) uint32 {
	for {
		v := d.Load()
		if v&1 != 0 {
			return v
		}
		if d.CompareAndSwap(v, v|1) {
			return v | 1
		}
	}
}

// DoorDisarm clears the sleep bit after waking.
func DoorDisarm(d *atomic.Uint32) {
	for {
		v := d.Load()
		if v&1 == 0 {
			return
		}
		if d.CompareAndSwap(v, v&^uint32(1)) {
			return
		}
	}
}

// DoorSleep blocks until the doorbell's word changes from armed or the
// timeout elapses (0 = a platform default). Spurious returns are allowed;
// callers loop around a work re-check.
func DoorSleep(d *atomic.Uint32, armed uint32, timeout time.Duration) {
	if d.Load() != armed {
		return
	}
	futexWait(d, armed, timeout)
}

// DoorStride is the byte distance between doorbell words in a doorbell
// segment: one cache line each, so shards ringing concurrently never
// bounce a line.
const DoorStride = 64

// DoorSegmentSize sizes a doorbell segment holding n words.
func DoorSegmentSize(n int) int64 {
	if n < 1 {
		n = 1
	}
	return int64(n) * DoorStride
}

// DoorWordAt binds the doorbell word at byte offset off inside a mapped
// segment. It validates bounds and 4-byte alignment, so a corrupt
// advertised offset is an error, never a fault.
func DoorWordAt(seg Segment, off uint32) (*atomic.Uint32, error) {
	buf, err := ringBuf(seg)
	if err != nil {
		return nil, err
	}
	if int64(off)+4 > int64(len(buf)) {
		return nil, fmt.Errorf("shm: doorbell offset %d outside %d-byte segment", off, len(buf))
	}
	if off%4 != 0 {
		return nil, fmt.Errorf("shm: doorbell offset %d not 4-byte aligned", off)
	}
	return u32at(buf, int(off)), nil
}
