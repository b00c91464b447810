package evalcache

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/search"
	"repro/internal/space"
)

// warmCache returns a cache holding one entry of every status, the
// state an artifact is imported into.
func warmCache() *Cache {
	ch := New()
	ch.Put("LU@Sandybridge/gnu-4.4.7/t1", space.Config{1, 2, 3}, Outcome{RunTime: 0.25, Cost: 1.75})
	ch.Put("LU@Sandybridge/gnu-4.4.7/t1|faults=0.1", space.Config{0, 4}, Outcome{RunTime: 50, Cost: 51.5, Status: search.StatusCensored, Retries: 1})
	ch.Put("MM@XeonPhi/intel-12/t60", space.Config{7}, Outcome{RunTime: math.Inf(1), Cost: 0.5, Status: search.StatusFailed, Retries: 2})
	return ch
}

func export(t *testing.T, ch *Cache) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ch.Export(&b); err != nil {
		t.Fatalf("export: %v", err)
	}
	return b.Bytes()
}

// FuzzImport pins the artifact boundary. A refused artifact leaves the
// cache exactly as it was and wraps ErrBadArtifact; an accepted one
// round-trips: the merged cache's export imports into a fresh cache
// whose export is byte-identical. The committed corpus under
// testdata/fuzz/FuzzImport adds malformed artifacts.
func FuzzImport(f *testing.F) {
	var seed bytes.Buffer
	if err := warmCache().Export(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		ch := warmCache()
		before := export(t, ch)
		if _, err := ch.Import(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadArtifact) {
				t.Fatalf("import error %v does not wrap ErrBadArtifact", err)
			}
			if after := export(t, ch); !bytes.Equal(after, before) {
				t.Fatalf("refused import changed the cache:\nbefore %s\nafter  %s", before, after)
			}
			return
		}
		merged := export(t, ch)
		fresh := New()
		if _, err := fresh.Import(bytes.NewReader(merged)); err != nil {
			t.Fatalf("re-importing an export failed: %v\n%s", err, merged)
		}
		if again := export(t, fresh); !bytes.Equal(again, merged) {
			t.Fatalf("export → import → export changed bytes:\nfirst  %s\nsecond %s", merged, again)
		}
	})
}
