package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestNewNamedDistinctStreams(t *testing.T) {
	a := NewNamed(7, "alpha")
	b := NewNamed(7, "beta")
	if a.Uint64() == b.Uint64() {
		t.Fatal("named streams with different names collided on first draw")
	}
	c := NewNamed(7, "alpha")
	a2 := NewNamed(7, "alpha")
	if c.Uint64() != a2.Uint64() {
		t.Fatal("same (seed, name) did not reproduce the stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("successive splits produced identical children")
	}
}

func TestSplitNamedStable(t *testing.T) {
	p1 := New(5)
	p2 := New(5)
	a := p1.SplitNamed("x")
	b := p2.SplitNamed("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SplitNamed is not a pure function of parent seed and name")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(17)
	for n := 1; n <= 33; n++ {
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Fatalf("Intn(%d) did not cover all values: %d seen", n, len(seen))
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(23)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("value %d count %d deviates from expected %.0f", v, c, expected)
		}
	}
}

// referenceUint64n is Uint64n as it was before it skipped the division:
// the rejection threshold 2^64 mod n computed on every call and the
// 128-bit product built from 32-bit halves.
func referenceUint64n(r *RNG, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		const mask32 = 1<<32 - 1
		x0, x1 := v&mask32, v>>32
		y0, y1 := n&mask32, n>>32
		w0 := x0 * y0
		t := x1*y0 + w0>>32
		w1 := t&mask32 + x0*y1
		hi := x1*y1 + t>>32 + w1>>32
		if lo := v * n; lo >= threshold {
			return hi
		}
	}
}

// TestUint64nMatchesReference: Uint64n accepts and rejects exactly the
// draws the old implementation did, so every value, and the number of
// draws consumed, is the same. The n near 2^63 (and 2^64) that are not
// powers of two reject close to half of all draws.
func TestUint64nMatchesReference(t *testing.T) {
	ns := []uint64{1, 2, 3, 5, 6, 7, 10, 247, 1000, 1<<32 - 1, 1<<32 + 1, 3 << 40,
		1<<63 - 1, 1<<63 + 1, 1<<63 + 3, 1<<63 + 1<<62, 1<<64 - 1, 1<<64 - 3}
	r := New(99)
	for i := 0; i < 40; i++ {
		ns = append(ns, r.Uint64()>>uint(r.Intn(64)))
	}
	for seed := uint64(0); seed < 50; seed++ {
		for _, n := range ns {
			if n == 0 {
				continue
			}
			got, want := New(seed), New(seed)
			for i := 0; i < 200; i++ {
				if g, w := got.Uint64n(n), referenceUint64n(want, n); g != w {
					t.Fatalf("seed %d n %d draw %d: Uint64n %d, reference %d", seed, n, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("seed %d n %d: the streams consumed different numbers of draws", seed, n)
			}
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(31)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 0.5); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementProperty(t *testing.T) {
	r := New(43)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleWithoutReplacement(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFullCoverage(t *testing.T) {
	r := New(47)
	s := r.SampleWithoutReplacement(20, 20)
	seen := make([]bool, 20)
	for _, v := range s {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("k==n sample missed index %d", i)
		}
	}
}

func TestSampleWithoutReplacementSmallKUnbiased(t *testing.T) {
	r := New(53)
	counts := make([]int, 100)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(100, 3) {
			counts[v]++
		}
	}
	expected := float64(trials*3) / 100
	for v, c := range counts {
		if math.Abs(float64(c)-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("index %d drawn %d times, expected ~%.0f", v, c, expected)
		}
	}
}

func TestChooseWeighted(t *testing.T) {
	r := New(59)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[r.Choose(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %v far from 3", ratio)
	}
}

func TestChooseAllZeroUniform(t *testing.T) {
	r := New(61)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[r.Choose([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 1500 || c > 2500 {
			t.Fatalf("all-zero Choose not uniform: index %d count %d", i, c)
		}
	}
}

func TestHash64Stability(t *testing.T) {
	if Hash64("mm/sandybridge") != Hash64("mm/sandybridge") {
		t.Fatal("Hash64 not stable")
	}
	if Hash64("a") == Hash64("b") {
		t.Fatal("Hash64 trivially collided")
	}
}

func TestHashInts64DependsOnAllParts(t *testing.T) {
	a := HashInts64("k", []int{1, 2, 3})
	if a != HashInts64("k", []int{1, 2, 3}) {
		t.Fatal("HashInts64 not stable")
	}
	if a == HashInts64("k2", []int{1, 2, 3}) {
		t.Fatal("HashInts64 ignores tag")
	}
	if a == HashInts64("k", []int{1, 2, 4}) {
		t.Fatal("HashInts64 ignores values")
	}
	if a == HashInts64("k", []int{1, 2}) {
		t.Fatal("HashInts64 ignores length")
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(67)
	vals := []int{5, 5, 7, 9, 9, 9}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum2 := 0
	for _, v := range vals {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatal("Shuffle changed the multiset")
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkSampleWithoutReplacement(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.SampleWithoutReplacement(100000, 100)
	}
}

// TestHasherMatchesHash64 pins the streaming hasher to hash/fnv's
// FNV-1a and to Hash64 of the concatenated pieces.
func TestHasherMatchesHash64(t *testing.T) {
	for _, parts := range [][]string{
		{},
		{""},
		{"codegen|", "Sandybridge", "|gnu-4.4.7|", "mm|", "U:k=4,;T:;R:;scr=false;vec=false"},
		{"XeonPhi/intel-15.0.1/t60", "|", "atax_t", "|", ""},
	} {
		whole := strings.Join(parts, "")
		h := NewHasher()
		for i, p := range parts {
			if i%2 == 0 {
				h = h.String(p)
			} else {
				h = h.Bytes([]byte(p))
			}
		}
		f := fnv.New64a()
		f.Write([]byte(whole))
		v := f.Sum64()
		if got, want := h.Sum64(), splitMix64(&v); got != want || got != Hash64(whole) {
			t.Errorf("%q: hasher %x, fnv %x, Hash64 %x", whole, got, want, Hash64(whole))
		}
	}
}

// TestHashIntsMatchesFNV pins HashInts64 and HashBytes64 to hash/fnv's
// FNV-1a over the tag and the values' little-endian bytes.
func TestHashIntsMatchesFNV(t *testing.T) {
	vals := []int{0, 3, -1, 1 << 40}
	f := fnv.New64a()
	f.Write([]byte("miniapp|HPL|Power7"))
	for _, v := range vals {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		f.Write(b[:])
	}
	sum := f.Sum64()
	if got, want := HashInts64("miniapp|HPL|Power7", vals), splitMix64(&sum); got != want {
		t.Errorf("HashInts64 = %x, want %x", got, want)
	}
	g := fnv.New64a()
	g.Write([]byte{1, 2, 3})
	sum = g.Sum64()
	if got, want := HashBytes64([]byte{1, 2, 3}), splitMix64(&sum); got != want {
		t.Errorf("HashBytes64 = %x, want %x", got, want)
	}
}
