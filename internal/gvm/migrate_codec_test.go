package gvm

import (
	"bytes"
	"testing"
)

// FuzzDecodeExtracted feeds arbitrary bytes to the MIG blob's session
// half, which a daemon decodes off the wire on ADP: decoding must never
// panic, what it accepts must hold the invariants the restore path walks
// without checking (one size per scratch buffer; every arena buffer absent
// or exactly its declared size, since a restore attaches it as device
// memory), and must re-encode and decode to the same blob.
func FuzzDecodeExtracted(f *testing.F) {
	seed, err := (&ExtractedSession{
		ID: 5, Priority: 1, Weight: 2, state: state{phase: done},
		Footprint: 12, DevBytes: 1024,
		PinIn: []byte{1, 2, 3, 4, 5, 6, 7, 8}, PinOut: []byte{9, 10, 11, 12},
		snap: &snapshot{
			in: []byte{1, 2}, inSize: 2, out: []byte{3}, outSize: 1,
			scratch: [][]byte{{4}, nil}, scrSizes: []int64{1, 256}, total: 260,
		},
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"id":1,"scratch":["AA==","AA=="],"scr_sizes":[1]}`)) // sizes short of buffers
	f.Add([]byte(`{"id":1,"footprint":-1,"snap_in_size":-5}`))
	f.Add([]byte(`{"id":1,"direct":true}`)) // a key older daemons sent: unknown, ignored
	// Arena buffers against their declared sizes: short, long, consistent.
	f.Add([]byte(`{"id":1,"snap_in":"AQID","snap_in_size":256}`))
	f.Add([]byte(`{"id":1,"scratch":["AQID"],"scr_sizes":[2]}`))
	f.Add([]byte(`{"id":1,"scratch":["AQID",null],"scr_sizes":[3,512],"snap_out":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"id":`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ext, err := DecodeExtracted(data) // must not panic
		if err != nil {
			return
		}
		if len(ext.snap.scratch) != len(ext.snap.scrSizes) {
			t.Fatalf("accepted %d scratch buffers with %d sizes", len(ext.snap.scratch), len(ext.snap.scrSizes))
		}
		fits := func(data []byte, size int64) {
			if size < 0 || (data != nil && int64(len(data)) != size) {
				t.Fatalf("accepted a %d-byte arena buffer declared as %d", len(data), size)
			}
		}
		fits(ext.snap.in, ext.snap.inSize)
		fits(ext.snap.out, ext.snap.outSize)
		for i, data := range ext.snap.scratch {
			fits(data, ext.snap.scrSizes[i])
		}
		_ = ext.Bytes()
		enc, err := ext.Encode()
		if err != nil {
			t.Fatalf("re-encode of a decoded session: %v", err)
		}
		again, err := DecodeExtracted(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		enc2, err := again.Encode()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
