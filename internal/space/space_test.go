package space

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func smallSpace() *Space {
	return New(
		NewIntRange("u", 1, 4),
		NewPowerOfTwo("t", 0, 3),
		NewBoolean("omp"),
		NewCategorical("bcast", "ring", "tree", "2ring"),
	)
}

func TestParamConstructors(t *testing.T) {
	p := NewIntRange("u", 1, 32)
	if p.Levels() != 32 || p.Value(0) != 1 || p.Value(31) != 32 {
		t.Fatalf("IntRange wrong: levels=%d first=%d last=%d", p.Levels(), p.Value(0), p.Value(31))
	}
	q := NewPowerOfTwo("t", 0, 11)
	if q.Levels() != 12 || q.Value(0) != 1 || q.Value(11) != 2048 {
		t.Fatalf("PowerOfTwo wrong: levels=%d", q.Levels())
	}
	b := NewBoolean("f")
	if b.Levels() != 2 || b.Value(0) != 0 || b.Value(1) != 1 {
		t.Fatal("Boolean wrong")
	}
	c := NewCategorical("algo", "a", "b")
	if c.Levels() != 2 || c.Label(1) != "b" {
		t.Fatal("Categorical wrong")
	}
	e := NewExplicit("nb", 32, 64, 128, 256)
	if e.Levels() != 4 || e.Value(2) != 128 {
		t.Fatal("Explicit wrong")
	}
}

func TestParamLevelOf(t *testing.T) {
	p := NewPowerOfTwo("t", 0, 5)
	if p.LevelOf(8) != 3 {
		t.Fatalf("LevelOf(8) = %d, want 3", p.LevelOf(8))
	}
	if p.LevelOf(7) != -1 {
		t.Fatal("LevelOf of absent value should be -1")
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate parameter names should panic")
		}
	}()
	New(NewBoolean("x"), NewBoolean("x"))
}

func TestSpaceSize(t *testing.T) {
	s := smallSpace()
	if s.Size() != 4*4*2*3 {
		t.Fatalf("size = %v, want 96", s.Size())
	}
}

func TestValidate(t *testing.T) {
	s := smallSpace()
	if err := s.Validate(Config{0, 0, 0, 0}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := s.Validate(Config{0, 0, 0}); err == nil {
		t.Fatal("short config accepted")
	}
	if err := s.Validate(Config{0, 0, 0, 5}); err == nil {
		t.Fatal("out-of-range level accepted")
	}
	if err := s.Validate(Config{0, 0, 0, -1}); err == nil {
		t.Fatal("negative level accepted")
	}
}

func TestValuesAndLookup(t *testing.T) {
	s := smallSpace()
	c := Config{2, 3, 1, 0}
	vals := s.Values(c)
	want := []int{3, 8, 1, 0}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values = %v, want %v", vals, want)
		}
	}
	if v := s.MustValue(c, "t"); v != 8 {
		t.Fatalf("MustValue(t) = %d, want 8", v)
	}
	if _, ok := s.Value(c, "missing"); ok {
		t.Fatal("lookup of missing parameter succeeded")
	}
}

func TestEncodeLogScaleForPow2(t *testing.T) {
	s := smallSpace()
	c := Config{1, 3, 1, 2}
	f := s.Encode(c)
	if f[0] != 2 { // u level 1 -> value 2
		t.Fatalf("int feature = %v", f[0])
	}
	if f[1] != 3 { // t level 3 -> value 8 -> log2 = 3
		t.Fatalf("pow2 feature = %v, want log2(8)=3", f[1])
	}
	if f[2] != 1 {
		t.Fatalf("bool feature = %v", f[2])
	}
	if f[3] != 2 { // categorical encodes as level index
		t.Fatalf("cat feature = %v", f[3])
	}
	names := s.FeatureNames()
	if names[1] != "log2_t" || names[0] != "u" {
		t.Fatalf("feature names = %v", names)
	}
}

func TestConfigKeyUniqueness(t *testing.T) {
	a := Config{1, 2, 3}
	b := Config{1, 23}
	if a.Key() == b.Key() {
		t.Fatal("distinct configs share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Fatal("clone changed the key")
	}
}

func TestStringRendering(t *testing.T) {
	s := smallSpace()
	got := s.String(Config{0, 0, 1, 1})
	want := "u=1 t=1 omp=on bcast=tree"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestRandomConfigsValidProperty(t *testing.T) {
	s := smallSpace()
	r := rng.New(1)
	f := func(uint8) bool {
		c := s.Random(r)
		return s.Validate(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerNoRepeats(t *testing.T) {
	s := smallSpace()
	sm := NewSampler(s, rng.New(2))
	seen := make(map[string]bool)
	count := 0
	for {
		c, ok := sm.Next()
		if !ok {
			break
		}
		k := c.Key()
		if seen[k] {
			t.Fatalf("sampler repeated config %s", k)
		}
		seen[k] = true
		count++
	}
	if count != int(s.Size()) {
		t.Fatalf("sampler exhausted after %d draws, space has %v", count, s.Size())
	}
}

// oldNext is the draw loop Next had before NextInto: a fresh Random
// configuration per attempt, and an exhaustive fallback that clones the
// configuration it finds.
func oldNext(sm *Sampler) (Config, bool) {
	if float64(len(sm.seen)) >= sm.space.Size() {
		return nil, false
	}
	for attempt := 0; attempt < 64; attempt++ {
		if c := sm.space.Random(sm.r); sm.claim(c) {
			return c, true
		}
	}
	total := int(sm.space.Size())
	remaining := total - len(sm.seen)
	if remaining <= 0 {
		return nil, false
	}
	target := sm.r.Intn(remaining)
	c := sm.space.Default()
	for i := 0; i < total; i++ {
		if !sm.Seen(c) {
			if target == 0 {
				out := c.Clone()
				sm.Exclude(out)
				return out, true
			}
			target--
		}
		if !sm.space.increment(c) {
			break
		}
	}
	return nil, false
}

// TestNextIntoMatchesNext: NextInto into one reused buffer, Next, and
// the draw loop Next had before NextInto return the same sequence from
// equal streams, through the exhaustive fallback of spaces drained to
// the last configuration (with one configuration excluded up front),
// report exhaustion together, and leave the streams aligned.
func TestNextIntoMatchesNext(t *testing.T) {
	for _, s := range []*Space{
		smallSpace(),
		New(NewIntRange("a", 0, 9), NewIntRange("b", 0, 9), NewIntRange("c", 0, 9)),
		New(NewBoolean("a")),
	} {
		r1, r2, r3 := rng.New(8), rng.New(8), rng.New(8)
		into, next, old := NewSampler(s, r1), NewSampler(s, r2), NewSampler(s, r3)
		for _, sm := range []*Sampler{into, next, old} {
			sm.Exclude(s.Default())
		}
		buf := make(Config, s.NumParams())
		for i := 0; ; i++ {
			ok1 := into.NextInto(buf)
			c2, ok2 := next.Next()
			c3, ok3 := oldNext(old)
			if ok1 != ok2 || ok1 != ok3 {
				t.Fatalf("%v: draw %d: ok %v %v %v", s.Names(), i, ok1, ok2, ok3)
			}
			if !ok1 {
				if i != int(s.Size())-1 {
					t.Fatalf("%v: exhausted after %d draws, want %v", s.Names(), i, s.Size()-1)
				}
				break
			}
			if buf.Key() != c2.Key() || c2.Key() != c3.Key() {
				t.Fatalf("%v: draw %d: NextInto %v, Next %v, old Next %v", s.Names(), i, buf, c2, c3)
			}
		}
		if a, b, c := r1.Uint64(), r2.Uint64(), r3.Uint64(); a != b || a != c {
			t.Fatalf("%v: streams not aligned after the drain", s.Names())
		}
	}
}

func TestSamplerExcludeRespected(t *testing.T) {
	s := New(NewIntRange("a", 0, 3))
	sm := NewSampler(s, rng.New(3))
	sm.Exclude(Config{2})
	for {
		c, ok := sm.Next()
		if !ok {
			break
		}
		if c[0] == 2 {
			t.Fatal("excluded config was sampled")
		}
	}
}

// TestSamplerCompactKeysExact: the sampler's compact keys give exactly
// the membership Config.Key gives. Random probes over levels of one to
// three uvarint bytes, and negative ones, are Seen exactly when their
// Key was excluded or drawn, and changing a configuration after the
// sampler returned it changes nothing the sampler holds.
func TestSamplerCompactKeysExact(t *testing.T) {
	s := New(NewIntRange("a", 0, 299), NewIntRange("b", 0, 20000), NewBoolean("c"))
	sm := NewSampler(s, rng.New(8))
	r := rng.New(9)
	want := map[string]bool{}
	probe := func() Config {
		return Config{r.Intn(300) - 2, r.Intn(20001), r.Intn(2)}
	}
	var probes []Config
	for i := 0; i < 3000; i++ {
		if i%2 == 0 {
			c := probe()
			sm.Exclude(c)
			want[c.Key()] = true
			probes = append(probes, c.Clone())
			continue
		}
		c, ok := sm.Next()
		if !ok {
			t.Fatal("sampler exhausted")
		}
		if want[c.Key()] {
			t.Fatalf("sampler returned %v, already drawn or excluded", c)
		}
		want[c.Key()] = true
		probes = append(probes, c.Clone())
		c[0], c[1] = c[1], c[0] // the caller owns what Next returns
		probes = append(probes, c)
	}
	for i := 0; i < 20000; i++ {
		probes = append(probes, probe())
	}
	for _, c := range probes {
		if sm.Seen(c) != want[c.Key()] {
			t.Fatalf("Seen(%v) = %v, want %v", c, sm.Seen(c), want[c.Key()])
		}
	}
	if sm.Drawn() != len(want) {
		t.Fatalf("Drawn() = %d, want %d", sm.Drawn(), len(want))
	}
}

func TestSamplerUniformFirstDraw(t *testing.T) {
	s := New(NewIntRange("a", 0, 9))
	counts := make([]int, 10)
	for seed := uint64(0); seed < 20000; seed++ {
		sm := NewSampler(s, rng.New(seed))
		c, _ := sm.Next()
		counts[c[0]]++
	}
	for v, c := range counts {
		if c < 1700 || c > 2300 {
			t.Fatalf("first draw not uniform: value %d count %d", v, c)
		}
	}
}

func TestSamplePoolDistinct(t *testing.T) {
	s := smallSpace()
	pool := s.SamplePool(50, rng.New(4))
	if len(pool) != 50 {
		t.Fatalf("pool size = %d", len(pool))
	}
	seen := make(map[string]bool)
	for _, c := range pool {
		if seen[c.Key()] {
			t.Fatal("pool has duplicates")
		}
		seen[c.Key()] = true
	}
}

func TestSamplePoolLargerThanSpace(t *testing.T) {
	s := New(NewBoolean("a"), NewBoolean("b"))
	pool := s.SamplePool(100, rng.New(5))
	if len(pool) != 4 {
		t.Fatalf("pool over tiny space = %d configs, want 4", len(pool))
	}
}

func TestEnumerateCoversSpace(t *testing.T) {
	s := smallSpace()
	all := s.Enumerate()
	if len(all) != int(s.Size()) {
		t.Fatalf("Enumerate returned %d configs, want %v", len(all), s.Size())
	}
	seen := make(map[string]bool)
	for _, c := range all {
		if s.Validate(c) != nil || seen[c.Key()] {
			t.Fatal("Enumerate produced invalid or duplicate config")
		}
		seen[c.Key()] = true
	}
}

func TestNeighbors(t *testing.T) {
	s := New(NewIntRange("a", 0, 2), NewIntRange("b", 0, 2))
	// Corner config has 2 neighbors, center has 4.
	if n := s.Neighbors(Config{0, 0}); len(n) != 2 {
		t.Fatalf("corner neighbors = %d, want 2", len(n))
	}
	if n := s.Neighbors(Config{1, 1}); len(n) != 4 {
		t.Fatalf("center neighbors = %d, want 4", len(n))
	}
	for _, n := range s.Neighbors(Config{1, 1}) {
		if s.Validate(n) != nil {
			t.Fatal("invalid neighbor")
		}
		diff := 0
		if n[0] != 1 {
			diff++
		}
		if n[1] != 1 {
			diff++
		}
		if diff != 1 {
			t.Fatal("neighbor differs in more than one parameter")
		}
	}
}

func TestDefaultIsUntransformed(t *testing.T) {
	s := New(NewIntRange("u", 1, 32), NewPowerOfTwo("t", 0, 11))
	d := s.Default()
	if s.MustValue(d, "u") != 1 || s.MustValue(d, "t") != 1 {
		t.Fatal("default config is not the untransformed variant")
	}
}

func TestHashStability(t *testing.T) {
	c := Config{1, 2, 3}
	if c.Hash("m") != c.Hash("m") {
		t.Fatal("config hash unstable")
	}
	if c.Hash("m") == c.Hash("n") {
		t.Fatal("config hash ignores tag")
	}
}

func TestEncodeRoundtripOrderPreserved(t *testing.T) {
	// Encoding of ordered params must be strictly increasing in level.
	s := New(NewIntRange("u", 1, 8), NewPowerOfTwo("t", 0, 5))
	for pi := 0; pi < s.NumParams(); pi++ {
		prev := math.Inf(-1)
		p := s.Param(pi)
		for lv := 0; lv < p.Levels(); lv++ {
			c := s.Default()
			c[pi] = lv
			f := s.Encode(c)[pi]
			if f <= prev {
				t.Fatalf("encoding not monotone for %s at level %d", p.Name, lv)
			}
			prev = f
		}
	}
}

func TestIncrementIsExhaustive(t *testing.T) {
	s := New(NewIntRange("a", 0, 1), NewIntRange("b", 0, 2))
	c := s.Default()
	count := 1
	for s.increment(c) {
		count++
	}
	if count != 6 {
		t.Fatalf("increment visited %d configs, want 6", count)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{IntRange: "int", PowerOfTwo: "pow2", Boolean: "bool", Categorical: "cat", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestNamesAndIndex(t *testing.T) {
	s := smallSpace()
	names := s.Names()
	if len(names) != 4 || names[0] != "u" || names[3] != "bcast" {
		t.Fatalf("Names = %v", names)
	}
	if s.Index("omp") != 2 || s.Index("nope") != -1 {
		t.Fatal("Index wrong")
	}
	sorted := s.SortedNames()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			t.Fatal("SortedNames not sorted")
		}
	}
}

func TestSamplerDrawn(t *testing.T) {
	s := smallSpace()
	sm := NewSampler(s, rng.New(9))
	if sm.Drawn() != 0 {
		t.Fatal("fresh sampler drawn != 0")
	}
	sm.Next()
	sm.Next()
	if sm.Drawn() != 2 {
		t.Fatalf("Drawn = %d", sm.Drawn())
	}
}

func TestMustValuePanicsOnUnknown(t *testing.T) {
	s := smallSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("MustValue of unknown parameter did not panic")
		}
	}()
	s.MustValue(s.Default(), "ghost")
}

func TestExplicitParamPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty explicit value list accepted")
		}
	}()
	NewExplicit("x")
}

// TestEncodeAllMatchesEncode: batch rows equal Encode row for row, on a
// small space and on one wide enough to span several backing chunks with
// a ragged last chunk, and no row can grow into its neighbour.
func TestEncodeAllMatchesEncode(t *testing.T) {
	wide := make([]Param, 300)
	for i := range wide {
		wide[i] = NewPowerOfTwo(fmt.Sprintf("p%03d", i), 0, 5)
	}
	r := rng.New(17)
	for name, s := range map[string]*Space{"small": smallSpace(), "wide": New(wide...), "empty": New()} {
		pool := s.SamplePool(97, r)
		rows := s.EncodeAll(pool)
		if len(rows) != len(pool) {
			t.Fatalf("%s: %d rows for %d configs", name, len(rows), len(pool))
		}
		for i, c := range pool {
			want := s.Encode(c)
			if len(rows[i]) != len(want) || cap(rows[i]) != len(want) {
				t.Fatalf("%s: row %d has len %d cap %d, want %d", name, i, len(rows[i]), cap(rows[i]), len(want))
			}
			for j := range want {
				if rows[i][j] != want[j] {
					t.Fatalf("%s: row %d feature %d = %v, Encode gives %v", name, i, j, rows[i][j], want[j])
				}
			}
		}
	}
}

// TestEncodedLevelsTable: the level table Encode reads holds each
// kind's encoding (the value, log2 of a power of two, 0/1, the category
// index), is built once on first use even when many goroutines encode a
// fresh space at once, and an out-of-range level still panics.
func TestEncodedLevelsTable(t *testing.T) {
	want := [][]float64{{1, 2, 3, 4}, {0, 1, 2, 3}, {0, 1}, {0, 1, 2}}
	s := smallSpace()
	c := Config{3, 2, 1, 0}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := s.Encode(c); got[0] != 4 || got[1] != 2 || got[2] != 1 || got[3] != 0 {
				t.Errorf("Encode(%v) = %v", c, got)
			}
		}()
	}
	wg.Wait()
	for i, vals := range want {
		got := s.EncodedLevels(i)
		if len(got) != len(vals) {
			t.Fatalf("param %d: %d levels, want %d", i, len(got), len(vals))
		}
		for l := range vals {
			if got[l] != vals[l] {
				t.Errorf("param %d level %d encodes %v, want %v", i, l, got[l], vals[l])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Encode accepted categorical level 3 of 3")
		}
	}()
	s.Encode(Config{0, 0, 0, 3})
}

func TestSpaceEqual(t *testing.T) {
	if !smallSpace().Equal(smallSpace()) {
		t.Fatal("identically built spaces unequal")
	}
	for name, o := range map[string]*Space{
		"levels": New(NewIntRange("u", 1, 4), NewPowerOfTwo("t", 1, 4),
			NewBoolean("omp"), NewCategorical("bcast", "ring", "tree", "2ring")),
		"kind": New(NewIntRange("u", 1, 4), NewExplicit("t", 1, 2, 4, 8),
			NewBoolean("omp"), NewCategorical("bcast", "ring", "tree", "2ring")),
		"name": New(NewIntRange("v", 1, 4), NewPowerOfTwo("t", 0, 3),
			NewBoolean("omp"), NewCategorical("bcast", "ring", "tree", "2ring")),
		"labels": New(NewIntRange("u", 1, 4), NewPowerOfTwo("t", 0, 3),
			NewBoolean("omp"), NewCategorical("bcast", "ring", "tree", "3ring")),
		"width": New(NewIntRange("u", 1, 4), NewPowerOfTwo("t", 0, 3), NewBoolean("omp")),
	} {
		if smallSpace().Equal(o) || o.Equal(smallSpace()) {
			t.Errorf("spaces differing in %s compare equal", name)
		}
	}
}
