package space

import (
	"bytes"
	"encoding/binary"
)

// keyChunk is the most bytes a keySet carves from one backing array for
// its keys (the same 32 KB bound as encodeChunk), so the key storage of a
// large set grows in small steps, never in one jump.
const keyChunk = 32 << 10

// keySet is an exact set of byte strings: an open-addressing table of
// 64-bit hashes with linear probing, over copies of the keys carved from
// arena chunks. A hash match is confirmed byte for byte, so a collision
// costs a probe, never a wrong answer. The hash is fixed and seedless,
// and nothing iterates over the set. The zero value is an empty set.
type keySet struct {
	slots []keySlot // a power of two long; a nil key marks an empty slot
	n     int
	arena []byte // the chunk new keys are copied into
}

type keySlot struct {
	hash uint64
	key  []byte
}

// reserve sizes the table for n keys in all, so inserting that many
// grows it no further.
func (s *keySet) reserve(n int) {
	if n*4 <= len(s.slots)*3 {
		return
	}
	size := max(16, len(s.slots))
	for size*3 < n*4 {
		size *= 2
	}
	old := s.slots
	s.slots = make([]keySlot, size)
	mask := uint64(size - 1)
	for _, sl := range old {
		if sl.key == nil {
			continue
		}
		i := sl.hash & mask
		for s.slots[i].key != nil {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// find returns the index of k's slot, or of the empty slot where k would
// go, and whether k is present. The table must have an empty slot.
func (s *keySet) find(k []byte, h uint64) (uint64, bool) {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.key == nil {
			return i, false
		}
		if sl.hash == h && bytes.Equal(sl.key, k) {
			return i, true
		}
	}
}

// contains reports whether k is in the set.
func (s *keySet) contains(k []byte) bool {
	if s.n == 0 {
		return false
	}
	_, ok := s.find(k, hashKey(k))
	return ok
}

// insert adds a copy of k unless it is present, reporting whether it was
// added. The set keeps no reference to k.
func (s *keySet) insert(k []byte) bool {
	if (s.n+1)*4 > len(s.slots)*3 {
		s.reserve(max(16, 2*s.n))
	}
	h := hashKey(k)
	i, ok := s.find(k, h)
	if ok {
		return false
	}
	s.slots[i] = keySlot{hash: h, key: s.store(k)}
	s.n++
	return true
}

// store copies k into the arena and returns the copy. A new chunk holds
// as many keys of k's length as the table has room for, up to keyChunk
// bytes, so a reserved set allocates its chunks at full size and a small
// one a little at a time.
func (s *keySet) store(k []byte) []byte {
	if s.arena == nil || cap(s.arena)-len(s.arena) < len(k) {
		room := len(s.slots)*3/4 - s.n
		s.arena = make([]byte, 0, max(len(k), min(keyChunk, len(k)*room)))
	}
	start := len(s.arena)
	s.arena = append(s.arena, k...)
	return s.arena[start:len(s.arena):len(s.arena)]
}

// hashKey is a fixed 64-bit hash of k that reads it eight bytes at a
// time and ends in SplitMix64's finalizer, so every bit of k reaches the
// low bits the table indexes by.
func hashKey(k []byte) uint64 {
	h := uint64(len(k)) * 0x9e3779b97f4a7c15
	for ; len(k) >= 8; k = k[8:] {
		h = (h ^ binary.LittleEndian.Uint64(k)) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	var tail [8]byte
	copy(tail[:], k)
	h = (h ^ binary.LittleEndian.Uint64(tail[:])) * 0xff51afd7ed558ccd
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}
