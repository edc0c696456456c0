package gvm

import (
	"encoding/json"
	"fmt"
)

// Wire codec for cross-node session migration: the federation router
// pulls a session off a draining node with the MIG verb (the dispatcher
// answers with Encode's bytes), carries the blob over the control
// plane, and lands it on the target node with ADP (the dispatcher calls
// DecodeExtracted and adopts). The encoding is JSON — migration is a
// cold path moving megabyte arenas, so self-describing beats clever —
// with []byte fields riding base64. The session's state rides as the
// phase keys done and rerun (a staged session travels as idle: the two
// answer every verb alike, and its input rides in pin_in) plus suspended
// when its client suspended it. Spec is deliberately NOT carried:
// kernel builders are closures, so the router ships the workload
// reference and rank alongside the blob and the target rebuilds the
// spec from its own registry.

// extractedWire is ExtractedSession flattened for the wire, including
// the unexported arena snapshot.
type extractedWire struct {
	ID        int    `json:"id"`
	MemQuota  int64  `json:"mem_quota,omitempty"`
	Priority  int    `json:"priority,omitempty"`
	Weight    int    `json:"weight,omitempty"`
	Done      bool   `json:"done,omitempty"`
	Rerun     bool   `json:"rerun,omitempty"`
	Suspended bool   `json:"suspended,omitempty"`
	Footprint int64  `json:"footprint"`
	DevBytes  int64  `json:"dev_bytes"`
	PinIn     []byte `json:"pin_in,omitempty"`
	PinOut    []byte `json:"pin_out,omitempty"`

	SnapIn      []byte   `json:"snap_in,omitempty"`
	SnapOut     []byte   `json:"snap_out,omitempty"`
	SnapInSize  int64    `json:"snap_in_size"`
	SnapOutSize int64    `json:"snap_out_size"`
	Scratch     [][]byte `json:"scratch,omitempty"`
	ScrSizes    []int64  `json:"scr_sizes,omitempty"`
	SnapTotal   int64    `json:"snap_total"`
}

// Encode serializes the extracted session (arena snapshot included) for
// cross-node transport.
func (e *ExtractedSession) Encode() ([]byte, error) {
	if e.snap == nil {
		return nil, fmt.Errorf("gvm: encode extracted session %d: no snapshot", e.ID)
	}
	w := extractedWire{
		ID:       e.ID,
		MemQuota: e.MemQuota, Priority: e.Priority, Weight: e.Weight,
		// A rerun's cycle ran to its end, into the fault: the blob says done
		// beside rerun, as it always has.
		Done:      e.state.phase == done || e.state.phase == rerun,
		Rerun:     e.state.phase == rerun,
		Suspended: e.state.res == suspended,
		Footprint: e.Footprint, DevBytes: e.DevBytes,
		PinIn: e.PinIn, PinOut: e.PinOut,
		SnapIn: e.snap.in, SnapOut: e.snap.out,
		SnapInSize: e.snap.inSize, SnapOutSize: e.snap.outSize,
		Scratch: e.snap.scratch, ScrSizes: e.snap.scrSizes,
		SnapTotal: e.snap.total,
	}
	return json.Marshal(w)
}

// DecodeExtracted rebuilds an extracted session from Encode's bytes.
// Spec is left nil — the caller must set it (rebuilt from the workload
// reference) before adoption. SetID rebinds the session id when the
// target mints a fresh one (cross-node, source ids can collide).
func DecodeExtracted(data []byte) (*ExtractedSession, error) {
	var w extractedWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("gvm: decode extracted session: %w", err)
	}
	snap := &snapshot{
		in: w.SnapIn, out: w.SnapOut,
		inSize: w.SnapInSize, outSize: w.SnapOutSize,
		scratch: w.Scratch, scrSizes: w.ScrSizes,
		total: w.SnapTotal,
	}
	// A blob is wire input; the target's allocation granularity is checked
	// at adoption.
	if err := snap.validate(func(n int64) int64 { return n }); err != nil {
		return nil, fmt.Errorf("gvm: decode extracted session: %w", err)
	}
	ext := &ExtractedSession{
		ID:       w.ID,
		MemQuota: w.MemQuota, Priority: w.Priority, Weight: w.Weight,
		Footprint: w.Footprint, DevBytes: w.DevBytes,
		PinIn: w.PinIn, PinOut: w.PinOut,
		snap: snap,
	}
	switch {
	case w.Rerun:
		ext.state.phase = rerun
	case w.Done:
		ext.state.phase = done
	}
	if w.Suspended {
		ext.state.res = suspended
	}
	return ext, nil
}

// SetID rebinds the extracted session to a new id before adoption. A
// cross-node adopter mints a fresh local id (the source node's striped
// id space overlaps the target's), while intra-node failover keeps the
// original.
func (e *ExtractedSession) SetID(id int) { e.ID = id }
