package shm

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func newTestRing(t testing.TB, c RingConfig, inBytes, outBytes int64) (*SessionRing, *SessionRing) {
	t.Helper()
	seg := NewMemory(RingSegmentSize(c, inBytes, outBytes), true)
	srv, err := InitSessionRing(seg, c, inBytes, outBytes, "door-seg", 64)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := AttachSessionRing(seg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli
}

func TestRingPushPeekRelease(t *testing.T) {
	srv, cli := newTestRing(t, DefaultRingConfig(), 0, 0)
	if cli.DoorFile() != "door-seg" || cli.DoorOff() != 64 {
		t.Fatalf("attach read doorbell %q/%d", cli.DoorFile(), cli.DoorOff())
	}
	// A move rewrites the door offset in the header; the client's view sees it.
	srv.SetDoorOff(128)
	if cli.DoorOff() != 128 {
		t.Fatalf("client reads door offset %d after the server set 128", cli.DoorOff())
	}
	// Client submits, server consumes.
	if !cli.Sub.Push([]byte("hello")) {
		t.Fatal("push failed on an empty ring")
	}
	rec, ok := srv.Sub.Peek()
	if !ok || string(rec) != "hello" {
		t.Fatalf("peek = %q, %v", rec, ok)
	}
	srv.Sub.Release()
	if _, ok := srv.Sub.Peek(); ok {
		t.Fatal("peek succeeded on a drained ring")
	}
}

func TestRingWraparound(t *testing.T) {
	c := RingConfig{Slots: 4, SlotSize: 64}
	srv, cli := newTestRing(t, c, 0, 0)
	// Push/consume far more records than slots, crossing the wrap many
	// times, verifying FIFO content the whole way.
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("rec-%03d", i))
		if !cli.Sub.Push(rec) {
			t.Fatalf("push %d failed", i)
		}
		got, ok := srv.Sub.Peek()
		if !ok || !bytes.Equal(got, rec) {
			t.Fatalf("peek %d = %q, %v", i, got, ok)
		}
		srv.Sub.Release()
	}
}

func TestRingFullBackpressure(t *testing.T) {
	c := RingConfig{Slots: 4, SlotSize: 64}
	srv, cli := newTestRing(t, c, 0, 0)
	for i := 0; i < c.Slots; i++ {
		if !cli.Sub.Push([]byte{byte(i)}) {
			t.Fatalf("push %d failed before the ring was full", i)
		}
	}
	if cli.Sub.Push([]byte{9}) {
		t.Fatal("push succeeded on a full ring")
	}
	// Draining one slot frees exactly one push.
	if _, ok := srv.Sub.Peek(); !ok {
		t.Fatal("peek failed on a full ring")
	}
	srv.Sub.Release()
	if !cli.Sub.Push([]byte{9}) {
		t.Fatal("push failed after a release")
	}
	if cli.Sub.Push([]byte{10}) {
		t.Fatal("second push succeeded with no release")
	}
}

func TestRingOversizeRecord(t *testing.T) {
	c := RingConfig{Slots: 4, SlotSize: 64}
	_, cli := newTestRing(t, c, 0, 0)
	big := make([]byte, cli.Sub.MaxRecord()+1)
	if cli.Sub.Push(big) {
		t.Fatal("push accepted a record larger than a slot")
	}
	if !cli.Sub.Push(big[:cli.Sub.MaxRecord()]) {
		t.Fatal("push rejected a max-size record")
	}
}

func TestSessionRingStaging(t *testing.T) {
	srv, cli := newTestRing(t, DefaultRingConfig(), 128, 256)
	if len(srv.In()) != 128 || len(srv.Out()) != 256 {
		t.Fatalf("server staging %d/%d", len(srv.In()), len(srv.Out()))
	}
	// Both sides see the same staging memory.
	cli.In()[0] = 0xAB
	if srv.In()[0] != 0xAB {
		t.Fatal("client input write not visible to the server")
	}
	srv.Out()[255] = 0xCD
	if cli.Out()[255] != 0xCD {
		t.Fatal("server output write not visible to the client")
	}
}

func TestRingGeometryRejected(t *testing.T) {
	seg := NewMemory(RingSegmentSize(DefaultRingConfig(), 0, 0), true)
	for _, c := range []RingConfig{
		{Slots: 3, SlotSize: 64},       // not a power of two
		{Slots: 4, SlotSize: 60},       // not cache-line aligned
		{Slots: 0, SlotSize: 64},       // empty
		{Slots: 1 << 20, SlotSize: 64}, // absurd
	} {
		if _, err := InitSessionRing(seg, c, 0, 0, "", 0); err == nil {
			t.Fatalf("InitSessionRing accepted %+v", c)
		}
	}
	// Timing-only segments carry no bytes: rings cannot live there.
	if _, err := InitSessionRing(NewMemory(1<<20, false), DefaultRingConfig(), 0, 0, "", 0); err == nil {
		t.Fatal("InitSessionRing accepted a timing-only segment")
	}
	if _, err := AttachSessionRing(NewMemory(1<<20, false)); err == nil {
		t.Fatal("AttachSessionRing accepted a timing-only segment")
	}
}

// TestRingHeaderCorruption drives AttachSessionRing over a grid of
// single-field corruptions: none may panic, and every accepted attach
// must keep all ring regions inside the segment.
func TestRingHeaderCorruption(t *testing.T) {
	c := DefaultRingConfig()
	size := RingSegmentSize(c, 64, 64)
	for field := 0; field < 72; field += 4 {
		for _, val := range []uint64{0, 1, 0xFFFFFFFF, uint64(size), uint64(size) * 2, 1 << 40} {
			seg := NewMemory(size, true)
			if _, err := InitSessionRing(seg, c, 64, 64, "door", 0); err != nil {
				t.Fatal(err)
			}
			buf := seg.Bytes()
			buf[field] = byte(val)
			buf[field+1] = byte(val >> 8)
			buf[field+2] = byte(val >> 16)
			buf[field+3] = byte(val >> 24)
			sr, err := AttachSessionRing(seg)
			if err != nil {
				continue // rejected: fine
			}
			// Accepted: exercising the rings must stay in bounds (the
			// masked indexing would panic on an out-of-range slice).
			sr.Sub.Push([]byte("x"))
			if rec, ok := sr.Sub.Peek(); ok {
				_ = rec[len(rec)-1]
				sr.Sub.Release()
			}
			sr.Cpl.Push([]byte("y"))
		}
	}
}

// FuzzRingHeader feeds arbitrary bytes as a ring segment: attach must
// reject or accept without ever panicking, and an accepted ring must
// confine all accesses to the segment. The input is the segment less the
// zeros of its header page: head is the page's first bytes (every field
// sits in its first 256) and body, when there is one, follows the page;
// with no body the segment is head alone. The input stays small because
// the fuzzer minimizes each interesting input by O(n²) cuts, none of which
// a ring filling its segment survives: a whole 4.6 KiB segment cost a
// minute of minimizing (-fuzzminimizetime's default) per input.
func FuzzRingHeader(f *testing.F) {
	c := RingConfig{Slots: 2, SlotSize: 64}
	good := NewMemory(RingSegmentSize(c, 8, 8), true)
	if _, err := InitSessionRing(good, c, 8, 8, "door", 0); err != nil {
		f.Fatal(err)
	}
	page := good.Bytes()[:ringHdrSize]
	f.Add(bytes.TrimRight(page, "\x00"), append([]byte(nil), good.Bytes()[ringHdrSize:]...))
	f.Add(make([]byte, 64), []byte{0}) // a zero header page
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, head, body []byte) {
		n := len(head)
		if len(body) > 0 {
			n = ringHdrSize + len(body)
			head = head[:min(len(head), ringHdrSize)]
		}
		// At least 8 bytes, so the backing is 8-byte aligned whatever n:
		// the tiny allocator would place a shorter one anywhere, and the
		// alignment check would pass or fail by chance.
		buf := make([]byte, max(n, 8))[:n]
		copy(buf, head)
		if len(body) > 0 {
			copy(buf[ringHdrSize:], body)
		}
		seg := &memSegment{size: int64(len(buf)), data: buf}
		sr, err := AttachSessionRing(seg)
		if err != nil {
			return
		}
		// Corrupt sequence words land here too (they are inside raw):
		// every operation must stay in bounds, stall, or fail cleanly.
		sr.Sub.Push([]byte("abc"))
		if rec, ok := sr.Sub.Peek(); ok && len(rec) > 0 {
			_ = rec[len(rec)-1]
			sr.Sub.Release()
		}
		sr.Cpl.Push([]byte("def"))
		if rec, ok := sr.Cpl.Peek(); ok && len(rec) > 0 {
			_ = rec[len(rec)-1]
			sr.Cpl.Release()
		}
		sr.ClientDoor().Add(2)
	})
}

func TestDoorbellProtocol(t *testing.T) {
	var d atomic.Uint32
	w0, k0 := FutexStats()
	// Ring with no sleeper armed: counter bumps, no wake syscall.
	DoorRing(&d)
	if v := d.Load(); v != 2 {
		t.Fatalf("door = %d, want 2", v)
	}
	if w, k := FutexStats(); w != w0 || k != k0 {
		t.Fatal("unarmed ring paid a futex syscall")
	}
	// Armed sleeper: the value changed since arming, so DoorSleep returns
	// immediately without a syscall.
	armed := DoorArm(&d)
	if armed&1 == 0 {
		t.Fatal("DoorArm did not set the sleep bit")
	}
	DoorRing(&d) // changes the word and pays one wake (sleeper armed)
	if _, k := FutexStats(); k != k0+1 {
		t.Fatal("armed ring did not futex-wake")
	}
	DoorSleep(&d, armed, time.Second)
	DoorDisarm(&d)
	if v := d.Load(); v&1 != 0 {
		t.Fatal("DoorDisarm left the sleep bit set")
	}

	// Sleep then cross-goroutine ring: must wake well before the timeout.
	armed = DoorArm(&d)
	done := make(chan struct{})
	go func() {
		DoorSleep(&d, armed, 10*time.Second)
		close(done)
	}()
	time.Sleep(time.Millisecond)
	DoorRing(&d)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("DoorSleep missed the wakeup")
	}
	DoorDisarm(&d)
}
