package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTraceLenient. It must never
// panic, it cannot skip more lines than the input has, and every event
// it accepts must marshal again, to bytes that decode back to the same
// event. The committed corpus under testdata/fuzz/FuzzReadTrace holds a
// real faulted trace, a torn tail, non-finite values and malformed
// lines.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, skipped, err := ReadTraceLenient(bytes.NewReader(data))
		if err != nil {
			return
		}
		if lines := bytes.Count(data, []byte("\n")) + 1; skipped > lines {
			t.Fatalf("skipped %d lines of %d", skipped, lines)
		}
		for _, e := range events {
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("accepted event %+v does not marshal: %v", e, err)
			}
			var back Event
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatalf("re-marshaled event %s does not decode: %v", b, err)
			}
			if again, _ := json.Marshal(back); !bytes.Equal(again, b) {
				t.Fatalf("event does not round-trip:\n%s\n%s", b, again)
			}
		}
	})
}
