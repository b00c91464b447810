package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// FuzzFrame pins the wire decoder, the one input a worker or a pool
// takes from another process. No input panics the frame reader or
// outcomeFromWire. A length prefix over maxFrame is refused with
// errFrameTooBig. An accepted frame round-trips: its encoding decodes
// to a frame with the same encoding, and a result's outcome converts
// back to the payload it came from. The committed corpus under
// testdata/fuzz/FuzzFrame holds one frame of each type and malformed
// ones.
func FuzzFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if len(data) >= 4 && binary.BigEndian.Uint32(data) > maxFrame {
			if !errors.Is(err, errFrameTooBig) {
				t.Fatalf("length prefix %d over the limit: got %v, want errFrameTooBig", binary.BigEndian.Uint32(data), err)
			}
			return
		}
		if err != nil {
			return
		}
		enc, err := encodeFrame(fr)
		if errors.Is(err, errFrameTooBig) {
			// Re-escaping a string can grow a frame near the limit past it.
			return
		}
		if err != nil {
			t.Fatalf("accepted frame %+v does not encode: %v", fr, err)
		}
		again, err := readFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded frame refused: %v", err)
		}
		if enc2, _ := encodeFrame(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("frame does not round-trip:\n  first:  %q\n  second: %q", enc, enc2)
		}
		if r := fr.Result; r != nil {
			back := outcomeToWire(r.Seq, outcomeFromWire(r))
			if math.Float64bits(float64(back.RunTime)) != math.Float64bits(float64(r.RunTime)) ||
				math.Float64bits(float64(back.Cost)) != math.Float64bits(float64(r.Cost)) ||
				back.Status != r.Status || back.Retries != r.Retries ||
				back.Degraded != r.Degraded || back.Err != r.Err {
				t.Fatalf("result does not round-trip through its outcome: %+v -> %+v", r, back)
			}
		}
	})
}
