package gvm

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for cross-node session migration: the federation router
// pulls a session off a draining node with the MIG verb (the dispatcher
// answers with Encode's bytes) and lands it on the target node with ADP
// (the dispatcher calls DecodeExtracted and adopts). The blob carries only
// what the target cannot work out for itself: a state byte (a staged
// session travels as idle: the two answer every verb alike, and its input
// rides as staged in), the scratch count, then staged in, staged out and
// each scratch buffer, each a presence byte and, if present, a uvarint
// length and the bytes. The arenas do not travel: a restore puts them on
// the staging, bar a WritesIn input, which the next flush's (or replay's)
// H2D refills from the staging before a kernel reads it. Kernel builders are
// closures, so ADP's REQ fields carry the workload reference, rank and
// scheduling options, the target rebuilds the spec from its own registry,
// and AdoptSession derives every size from that spec.

// The state byte's bits.
const (
	wireDone = 1 << iota
	wireRerun
)

// maxWireScratch bounds a blob's scratch count: an absent buffer is one
// byte on the wire but a 24-byte slice decoded, and a task builds a handful
// (the registry's most is MG's 11).
const maxWireScratch = 1 << 12

// buffers lists the session's buffers in wire order.
func (e *ExtractedSession) buffers() [][]byte {
	return append([][]byte{e.PinIn, e.PinOut}, e.snap.scratch...)
}

// Encode serializes the extracted session for cross-node transport.
func (e *ExtractedSession) Encode() []byte {
	var st byte
	switch e.phase {
	case done:
		st = wireDone
	case rerun:
		st = wireRerun
	}
	bufs := e.buffers()
	n := 1 + binary.MaxVarintLen64
	for _, b := range bufs {
		n += 1 + binary.MaxVarintLen64 + len(b)
	}
	out := binary.AppendUvarint(append(make([]byte, 0, n), st), uint64(len(e.snap.scratch)))
	for _, b := range bufs {
		if b == nil {
			out = append(out, 0)
		} else {
			out = append(binary.AppendUvarint(append(out, 1), uint64(len(b))), b...)
		}
	}
	return out
}

// DecodeExtracted rebuilds an extracted session from Encode's bytes,
// copying each buffer out of data (a connection reuses its read buffer).
// The caller sets Request before adoption; ID stays 0, so AdoptSession
// mints the session a local id.
func DecodeExtracted(data []byte) (*ExtractedSession, error) {
	bad := func(format string, a ...any) (*ExtractedSession, error) {
		return nil, fmt.Errorf("gvm: decode extracted session: "+format, a...)
	}
	if len(data) == 0 {
		return bad("no state byte")
	}
	st := data[0]
	if st&^(wireDone|wireRerun) != 0 || st&(wireDone|wireRerun) == wireDone|wireRerun {
		return bad("bad state byte 0x%02x", st)
	}
	ext := &ExtractedSession{snap: &snapshot{}}
	if st&wireDone != 0 {
		ext.phase = done
	} else if st&wireRerun != 0 {
		ext.phase = rerun
	}
	nscr, k := binary.Uvarint(data[1:])
	// Each buffer takes at least its presence byte.
	if k <= 0 || nscr > uint64(len(data)-1-k) || nscr > maxWireScratch {
		return bad("bad scratch count")
	}
	data = data[1+k:]
	bufs := make([][]byte, 2+nscr)
	for i := range bufs {
		switch {
		case len(data) > 0 && data[0] == 0:
			data = data[1:]
		case len(data) > 0 && data[0] == 1:
			size, k := binary.Uvarint(data[1:])
			if k <= 0 || size > uint64(len(data)-1-k) {
				return bad("buffer %d: truncated", i)
			}
			data = data[1+k:]
			bufs[i], data = append(make([]byte, 0, size), data[:size]...), data[size:]
		default:
			return bad("buffer %d: truncated or a bad presence byte", i)
		}
	}
	if len(data) != 0 {
		return bad("%d trailing bytes", len(data))
	}
	ext.PinIn, ext.PinOut, ext.snap.scratch = bufs[0], bufs[1], bufs[2:]
	return ext, nil
}
