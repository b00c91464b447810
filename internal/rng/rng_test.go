package rng

import (
	"math"
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
