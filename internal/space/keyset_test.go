package space

import (
	"testing"

	"repro/internal/rng"
)

// TestKeySetMatchesMap: a keySet, reserved or grown from empty, answers
// every insert and lookup as a map of strings does, over random keys of
// 0 to 300 bytes drawn from a small alphabet (so many share prefixes and
// repeat), keeps its own copy of each key, and never carves an arena
// chunk larger than keyChunk or the key that needed it.
func TestKeySetMatchesMap(t *testing.T) {
	for _, reserve := range []int{0, 5000} {
		var s keySet
		s.reserve(reserve)
		want := map[string]bool{}
		r := rng.New(uint64(11 + reserve))
		key := func() []byte {
			k := make([]byte, r.Intn(4)*r.Intn(76))
			for i := range k {
				k[i] = byte(r.Intn(3))
			}
			return k
		}
		for i := 0; i < 6000; i++ {
			k := key()
			if got := s.insert(k); got != !want[string(k)] {
				t.Fatalf("reserve %d: insert %v = %v, want %v", reserve, k, got, !want[string(k)])
			}
			want[string(k)] = true
			if cap(s.arena) > max(keyChunk, len(k)) {
				t.Fatalf("reserve %d: arena chunk of %d bytes", reserve, cap(s.arena))
			}
			for i := range k {
				k[i] = 7 // the caller owns k; the set holds a copy
			}
			if k := key(); s.contains(k) != want[string(k)] {
				t.Fatalf("reserve %d: contains %v = %v, want %v", reserve, k, s.contains(k), want[string(k)])
			}
		}
		if s.n != len(want) {
			t.Fatalf("reserve %d: %d keys, want %d", reserve, s.n, len(want))
		}
		for k := range want {
			if !s.contains([]byte(k)) {
				t.Fatalf("reserve %d: lost key %v", reserve, []byte(k))
			}
		}
	}
}

// TestKeySetConfirmsBytes: a key whose hash matches a stored key's is
// found only if its bytes match too.
func TestKeySetConfirmsBytes(t *testing.T) {
	var s keySet
	a, b := []byte{1, 2, 3}, []byte{3, 2, 1}
	s.insert(a)
	if _, ok := s.find(b, hashKey(a)); ok {
		t.Fatal("a different key with the same hash was found")
	}
	if _, ok := s.find(a, hashKey(a)); !ok {
		t.Fatal("the stored key was not found")
	}
	if s.contains(nil) || !s.insert(nil) || !s.contains([]byte{}) || s.insert([]byte{}) {
		t.Fatal("the empty key is not a member like any other")
	}
}
