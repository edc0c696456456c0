package node

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The load report is what a gvmd node answers STA with: its shards folded
// into the one node-level Load the federation router places against with
// the same Placer the node uses for its shards. It travels as one binary
// record of five varints — health, sessions, bytes, headroom, resident —
// inside the answer's frame.

// NodeLoad folds the node's shards into one node-level Load: sessions,
// reserved and resident bytes summed over every shard, headroom summed
// over PLACEABLE shards only (a draining shard's free bytes are not
// headroom anyone can use). The node's
// health is the best shard's — one healthy shard keeps the node
// placeable, while a node whose every shard is draining or dead reports
// the worst state so the router evacuates it. Safe from any goroutine
// (every input is an atomic gauge).
func (n *Node) NodeLoad() Load {
	l := Load{Health: Unhealthy}
	for _, sh := range n.Loads() {
		l.Health = min(l.Health, sh.Health)
		l.Sessions += sh.Sessions
		l.Bytes += sh.Bytes
		l.Resident += sh.Resident
		if sh.Health.Placeable() {
			l.MemFree += sh.MemFree
		}
	}
	return l
}

// AppendLoad appends l's load record to b. Shard is not part of it: the
// reader knows which target it asked.
func AppendLoad(b []byte, l Load) []byte {
	for _, v := range [...]int64{int64(l.Health), l.Sessions, l.Bytes, l.MemFree, l.Resident} {
		b = binary.AppendVarint(b, v)
	}
	return b
}

// DecodeLoad parses one load record. A truncated record or trailing bytes
// is an error; a health value outside the four states reads as Unhealthy.
func DecodeLoad(data []byte) (Load, error) {
	var v [5]int64
	for i := range v {
		x, k := binary.Varint(data)
		if k <= 0 {
			return Load{}, fmt.Errorf("node: load record field %d is truncated or overflows 64 bits", i)
		}
		v[i], data = x, data[k:]
	}
	if len(data) > 0 {
		return Load{}, errors.New("node: trailing bytes after load record")
	}
	h := HealthState(v[0])
	if v[0] < int64(Healthy) || v[0] > int64(Unhealthy) {
		h = Unhealthy
	}
	return Load{Health: h, Sessions: v[1], Bytes: v[2], MemFree: v[3], Resident: v[4]}, nil
}
