package gvm

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

// FuzzDecodeExtracted feeds arbitrary bytes to the MIG blob decoder, which
// a daemon runs straight off the wire on ADP: decoding must never panic,
// what it accepts must re-encode and decode to the same blob, and what
// adoption then sizes against a spec must hold the invariant the restore
// path walks without checking — one size per scratch buffer, and every
// buffer absent or exactly its allocation, since a restore attaches it as
// device memory.
func FuzzDecodeExtracted(f *testing.F) {
	roundUp := func(n int64) int64 { return (n + 255) &^ 255 }
	vecadd, is := workloads.VectorAdd(64).Spec(0), workloads.ClassSIS().Spec(0)
	blob := func(ph phase, pinIn, pinOut []byte, scratch ...[]byte) []byte {
		return (&ExtractedSession{phase: ph, PinIn: pinIn, PinOut: pinOut,
			snap: &snapshot{scratch: scratch}}).Encode()
	}
	staged := blob(idle, make([]byte, 512), make([]byte, 256))
	f.Add(staged)
	f.Add(blob(done, nil, nil))
	// The retired suspended bit is a bad state byte.
	suspended := append([]byte{0x04}, blob(done, nil, nil)[1:]...)
	if _, err := DecodeExtracted(suspended); err == nil || !strings.Contains(err.Error(), "bad state byte 0x04") {
		f.Fatalf("a blob with state byte 0x04 decoded: %v", err)
	}
	f.Add(suspended)
	f.Add(blob(rerun, make([]byte, 512), nil))
	// Staged input that is not the 512 bytes vecadd stages.
	f.Add(blob(idle, []byte{1, 2, 3}, nil))
	f.Add(blob(idle, make([]byte, 513), nil))
	// Class-S IS scratch that is not what the task builds: its block
	// histogram shrunk to 256 bytes, its two buffers swapped, one too many.
	f.Add(blob(done, nil, nil, make([]byte, 256), nil))
	f.Add(blob(done, nil, nil, make([]byte, 8448), nil))
	f.Add(blob(done, nil, nil, nil, nil, nil))
	f.Add(staged[:len(staged)-1])                      // truncated
	f.Add(append(staged[:len(staged):len(staged)], 0)) // trailing
	f.Add([]byte{wireDone | wireRerun, 0, 0, 0})
	f.Add([]byte{0, 0, 2, 0})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(append(binary.AppendUvarint([]byte{0}, maxWireScratch+1), make([]byte, 2+maxWireScratch+1)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ext, err := DecodeExtracted(data) // must not panic
		if err != nil {
			return
		}
		if len(ext.snap.scratch) > maxWireScratch {
			t.Fatalf("accepted %d scratch buffers", len(ext.snap.scratch))
		}
		enc := ext.Encode()
		again, err := DecodeExtracted(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(enc, again.Encode()) || again.State() != ext.State() {
			t.Fatalf("unstable round trip:\n%x\n%x", enc, again.Encode())
		}
		for _, spec := range []*task.Spec{vecadd, is} {
			ext.Spec = spec
			if ext.size(roundUp) != nil {
				continue
			}
			sn := ext.snap
			if len(sn.scrSizes) != len(sn.scratch) {
				t.Fatalf("sized %d scratch buffers with %d sizes", len(sn.scratch), len(sn.scrSizes))
			}
			want := append([]int64{spec.InBytes, spec.OutBytes}, sn.scrSizes...)
			for i, b := range ext.buffers() {
				if b != nil && int64(len(b)) != want[i] {
					t.Fatalf("%s: accepted a %d-byte buffer %d of size %d", spec.Name, len(b), i, want[i])
				}
			}
			_ = ext.Bytes()
		}
	})
}
