// Package space models the discrete configuration spaces that autotuning
// searches over: typed tunable parameters, configurations, encoding into
// numeric feature vectors for the surrogate model, and uniform sampling
// without replacement over spaces far too large to enumerate.
//
// A Config is represented compactly as a slice of level indices, one per
// parameter; Values materializes the actual parameter values. This mirrors
// how Orio and OpenTuner represent points in their search spaces.
package space

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/rng"
)

// Kind describes the semantic type of a tunable parameter. The kind
// determines how the parameter is encoded for the surrogate model.
type Kind int

const (
	// IntRange is a contiguous integer range, e.g. unroll factor 1..32.
	IntRange Kind = iota
	// PowerOfTwo is a value chosen from {2^lo, ..., 2^hi}, e.g. tile sizes.
	PowerOfTwo
	// Boolean is an on/off switch, e.g. a compiler flag.
	Boolean
	// Categorical is an unordered finite set, e.g. a broadcast algorithm.
	Categorical
)

func (k Kind) String() string {
	switch k {
	case IntRange:
		return "int"
	case PowerOfTwo:
		return "pow2"
	case Boolean:
		return "bool"
	case Categorical:
		return "cat"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Param is one tunable parameter: a name plus an ordered list of levels.
type Param struct {
	Name string
	Kind Kind
	// levels holds the concrete integer value of each level. For
	// Categorical parameters the values are indices into Labels.
	levels []int
	// Labels names categorical levels; nil for numeric parameters.
	Labels []string
}

// NewIntRange returns a parameter ranging over lo..hi inclusive with step 1.
func NewIntRange(name string, lo, hi int) Param {
	if hi < lo {
		panic(fmt.Sprintf("space: empty range %d..%d for %s", lo, hi, name))
	}
	levels := make([]int, hi-lo+1)
	for i := range levels {
		levels[i] = lo + i
	}
	return Param{Name: name, Kind: IntRange, levels: levels}
}

// MaxPow2Exp is the largest exponent NewPowerOfTwo accepts.
const MaxPow2Exp = 30

// NewPowerOfTwo returns a parameter over {2^loExp, ..., 2^hiExp}.
func NewPowerOfTwo(name string, loExp, hiExp int) Param {
	if hiExp < loExp || loExp < 0 || hiExp > MaxPow2Exp {
		panic(fmt.Sprintf("space: bad power-of-two exponents %d..%d for %s", loExp, hiExp, name))
	}
	levels := make([]int, hiExp-loExp+1)
	for i := range levels {
		levels[i] = 1 << (loExp + i)
	}
	return Param{Name: name, Kind: PowerOfTwo, levels: levels}
}

// NewBoolean returns an on/off parameter encoded as {0, 1}.
func NewBoolean(name string) Param {
	return Param{Name: name, Kind: Boolean, levels: []int{0, 1}}
}

// NewCategorical returns a parameter over the given labels.
func NewCategorical(name string, labels ...string) Param {
	if len(labels) == 0 {
		panic("space: categorical parameter needs at least one label")
	}
	levels := make([]int, len(labels))
	for i := range levels {
		levels[i] = i
	}
	return Param{Name: name, Kind: Categorical, levels: levels, Labels: append([]string(nil), labels...)}
}

// NewExplicit returns an IntRange-kind parameter over an explicit ordered
// value list (used for irregular ranges such as HPL block sizes).
func NewExplicit(name string, values ...int) Param {
	if len(values) == 0 {
		panic("space: explicit parameter needs at least one value")
	}
	return Param{Name: name, Kind: IntRange, levels: append([]int(nil), values...)}
}

// Levels returns the number of levels of the parameter.
func (p Param) Levels() int { return len(p.levels) }

// Value returns the concrete value of the given level index.
func (p Param) Value(level int) int {
	if level < 0 || level >= len(p.levels) {
		panic(fmt.Sprintf("space: level %d out of range for %s (%d levels)", level, p.Name, len(p.levels)))
	}
	return p.levels[level]
}

// LevelOf returns the level index whose value equals v, or -1.
func (p Param) LevelOf(v int) int {
	for i, lv := range p.levels {
		if lv == v {
			return i
		}
	}
	return -1
}

// Label returns a human-readable rendering of the level's value.
func (p Param) Label(level int) string {
	if p.Kind == Categorical {
		return p.Labels[p.Value(level)]
	}
	if p.Kind == Boolean {
		if p.Value(level) == 0 {
			return "off"
		}
		return "on"
	}
	return fmt.Sprintf("%d", p.Value(level))
}

// Space is an ordered collection of parameters defining a search space.
type Space struct {
	params []Param
	byName map[string]int
	// size caches Size: the parameters never change after New, and the
	// sampler consults the count on every draw.
	size float64
	// encoded[i][l] is the feature value Encode writes for parameter i
	// at level l: the one definition of the encoding. It is built on
	// first use (see table), since model-free searches never encode and
	// New runs once per problem built.
	encodeOnce sync.Once
	encoded    [][]float64
}

// New constructs a Space from parameters. Parameter names must be unique.
func New(params ...Param) *Space {
	s := &Space{params: append([]Param(nil), params...), byName: make(map[string]int, len(params))}
	for i, p := range s.params {
		if p.Name == "" {
			panic("space: parameter with empty name")
		}
		if _, dup := s.byName[p.Name]; dup {
			panic("space: duplicate parameter name " + p.Name)
		}
		s.byName[p.Name] = i
	}
	s.size = 1.0
	for _, p := range s.params {
		s.size *= float64(p.Levels())
	}
	return s
}

// table returns the encoded-level table, building it on first use in one
// backing array (RT alone has 247 parameters).
func (s *Space) table() [][]float64 {
	s.encodeOnce.Do(func() {
		levels := 0
		for _, p := range s.params {
			levels += p.Levels()
		}
		flat := make([]float64, 0, levels)
		s.encoded = make([][]float64, len(s.params))
		for i, p := range s.params {
			lo := len(flat)
			flat = appendEncoded(flat, p)
			s.encoded[i] = flat[lo:len(flat):len(flat)]
		}
	})
	return s.encoded
}

// appendEncoded appends the feature value of each of p's levels. Ordered
// parameters (IntRange, PowerOfTwo, Boolean) encode as their concrete
// value (log2 for PowerOfTwo, so tile sizes are on a linear scale);
// Categorical parameters encode as their level index, which a
// tree-based model can split on without assuming order.
func appendEncoded(dst []float64, p Param) []float64 {
	for l, v := range p.levels {
		switch p.Kind {
		case PowerOfTwo:
			dst = append(dst, math.Log2(float64(v)))
		case Categorical:
			dst = append(dst, float64(l))
		default:
			dst = append(dst, float64(v))
		}
	}
	return dst
}

// Equal reports whether s and o hold the same parameters in the same
// order: names, kinds, level values and labels. Sampling and encoding
// read only each parameter's kind and level values, so equal spaces draw
// identical pools from identical streams and encode every configuration
// identically.
func (s *Space) Equal(o *Space) bool {
	if len(s.params) != len(o.params) {
		return false
	}
	for i := range s.params {
		a, b := &s.params[i], &o.params[i]
		if a.Name != b.Name || a.Kind != b.Kind ||
			!slices.Equal(a.levels, b.levels) || !slices.Equal(a.Labels, b.Labels) {
			return false
		}
	}
	return true
}

// NumParams returns the number of tunable parameters.
func (s *Space) NumParams() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) Param { return s.params[i] }

// Names returns the parameter names in order.
func (s *Space) Names() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		names[i] = p.Name
	}
	return names
}

// Index returns the position of the named parameter, or -1.
func (s *Space) Index(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// Size returns the number of configurations in the space as a float64
// (spaces like ATAX's 2.57e12 overflow int on 32-bit platforms and are
// reported in scientific notation in the paper).
func (s *Space) Size() float64 { return s.size }

// Config is a point in a Space: one level index per parameter.
type Config []int

// Clone returns a copy of c.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Key returns a compact string key identifying the configuration, usable
// as a map key for sampling without replacement: the decimal levels joined
// by commas ("3,0,12"). The bytes are a persisted format — evalcache
// entries are keyed by them, fault rolls hash them, and journal replay
// matches configurations by them — so the rendering must never change.
func (c Config) Key() string {
	var b strings.Builder
	b.Grow(keyLen(c))
	var digits [20]byte
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		if 0 <= v && v < 10 {
			b.WriteByte(byte('0' + v))
		} else {
			b.Write(strconv.AppendInt(digits[:0], int64(v), 10))
		}
	}
	return b.String()
}

// keyLen returns the length of c.Key(), so Key allocates exactly once.
func keyLen(c Config) int {
	n := len(c) - 1
	if n < 0 {
		return 0
	}
	for _, v := range c {
		if v < 0 {
			n++
			v = -v
		}
		for n++; v >= 10; v /= 10 {
			n++
		}
	}
	return n
}

// AppendCompactKey appends c to dst as one uvarint per level and returns
// the extended buffer. Uvarints are a prefix code, so distinct
// configurations get distinct keys: a set keyed by them is as exact as
// one keyed by Key, at about a byte per level instead of a rendered
// decimal, and a lookup m[string(buf)] through a reused buffer does not
// allocate. Key stays the persisted format; compact keys are for sets
// that live in memory only.
func (c Config) AppendCompactKey(dst []byte) []byte {
	for _, v := range c {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// Hash returns a stable 64-bit hash of the configuration under a tag.
func (c Config) Hash(tag string) uint64 { return rng.HashInts64(tag, c) }

// Validate checks that the configuration is well-formed for the space.
func (s *Space) Validate(c Config) error {
	if len(c) != len(s.params) {
		return fmt.Errorf("space: config has %d entries, space has %d parameters", len(c), len(s.params))
	}
	for i, lv := range c {
		if lv < 0 || lv >= s.params[i].Levels() {
			return fmt.Errorf("space: level %d out of range for parameter %s", lv, s.params[i].Name)
		}
	}
	return nil
}

// Values materializes the concrete parameter values of c in parameter order.
func (s *Space) Values(c Config) []int {
	vals := make([]int, len(c))
	for i, lv := range c {
		vals[i] = s.params[i].Value(lv)
	}
	return vals
}

// Value returns the concrete value of the named parameter in c, and
// whether the parameter exists.
func (s *Space) Value(c Config, name string) (int, bool) {
	i, ok := s.byName[name]
	if !ok {
		return 0, false
	}
	return s.params[i].Value(c[i]), true
}

// MustValue is Value but panics when the parameter does not exist.
func (s *Space) MustValue(c Config, name string) int {
	v, ok := s.Value(c, name)
	if !ok {
		panic("space: unknown parameter " + name)
	}
	return v
}

// String renders c as "name=value" pairs.
func (s *Space) String(c Config) string {
	var b strings.Builder
	for i, p := range s.params {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", p.Name, p.Label(c[i]))
	}
	return b.String()
}

// Encode maps c to a numeric feature vector for the surrogate model, one
// feature per parameter: the value EncodedLevels gives for c's level.
func (s *Space) Encode(c Config) []float64 {
	f := make([]float64, len(c))
	s.EncodeInto(f, c)
	return f
}

// EncodeInto writes Encode(c) into dst, which must hold NumParams
// values, so a caller can fill rows of a shared or reused backing.
func (s *Space) EncodeInto(dst []float64, c Config) {
	dst = dst[:len(s.params)]
	for i, vals := range s.table() {
		if c[i] < 0 || c[i] >= len(vals) {
			panic(fmt.Sprintf("space: level %d out of range for %s (%d levels)", c[i], s.params[i].Name, len(vals)))
		}
		dst[i] = vals[c[i]]
	}
}

// EncodedLevels returns the feature value of every level of parameter
// i, the table Encode reads: Encode(c)[i] == EncodedLevels(i)[c[i]]. A
// model compiled against these values can score configurations straight
// from their level indices. The slice is shared; callers must not
// modify it.
func (s *Space) EncodedLevels(i int) []float64 { return s.table()[i] }

// encodeChunk is the most float64s EncodeAll carves from one backing
// allocation: 32 KB, the largest small-object size class. One backing per
// pool (20 MB for RT at N = 10 000) lands on the large-object heap and
// raised the transfer benchmark's peak RSS by about 18 %.
const encodeChunk = 4096

// EncodeAll encodes every configuration, one row each. The rows are views
// into a few shared backing arrays instead of one allocation per row.
func (s *Space) EncodeAll(cs []Config) [][]float64 {
	nf := len(s.params)
	rows := make([][]float64, len(cs))
	var flat []float64
	for i, c := range cs {
		if len(flat) < nf {
			flat = make([]float64, min(max(1, encodeChunk/nf), len(cs)-i)*nf)
		}
		rows[i], flat = flat[:nf:nf], flat[nf:]
		s.EncodeInto(rows[i], c)
	}
	return rows
}

// FeatureNames returns the feature names corresponding to Encode's output.
func (s *Space) FeatureNames() []string {
	names := make([]string, len(s.params))
	for i, p := range s.params {
		if p.Kind == PowerOfTwo {
			names[i] = "log2_" + p.Name
		} else {
			names[i] = p.Name
		}
	}
	return names
}

// Default returns the all-zeros configuration (each parameter at its first
// level). For the SPAPT kernels this is the untransformed variant: unroll 1,
// tile 1, register tile 1, matching the suite's default/initial point.
func (s *Space) Default() Config { return make(Config, len(s.params)) }

// Random returns a uniform random configuration.
func (s *Space) Random(r *rng.RNG) Config {
	c := make(Config, len(s.params))
	s.randomInto(c, r)
	return c
}

// randomInto writes Random's draws into dst, which holds NumParams levels.
func (s *Space) randomInto(dst Config, r *rng.RNG) {
	for i := range s.params {
		dst[i] = r.Intn(len(s.params[i].levels))
	}
}

// Sampler samples configurations uniformly at random without replacement.
// It tracks previously returned configurations, so it works on spaces of
// any size without materializing them; external evaluations can be
// excluded too.
type Sampler struct {
	space *Space
	r     *rng.RNG
	// seen holds the compactKey of every configuration returned or
	// excluded. Each key is its own copy, so it aliases no Config.
	seen keySet
	buf  []byte // compactKey's scratch
}

// NewSampler returns a Sampler drawing from r.
func NewSampler(s *Space, r *rng.RNG) *Sampler {
	return &Sampler{space: s, r: r}
}

// Reserve makes room for n distinct configurations drawn or excluded in
// all, so a caller that knows how many it will draw (a pool's N) sizes
// the sampler's memory once. It changes no draw.
func (sm *Sampler) Reserve(n int) { sm.seen.reserve(n) }

// compactKey renders c into the sampler's scratch with AppendCompactKey.
func (sm *Sampler) compactKey(c Config) []byte {
	sm.buf = c.AppendCompactKey(sm.buf[:0])
	return sm.buf
}

// Exclude marks a configuration as already used.
func (sm *Sampler) Exclude(c Config) { sm.seen.insert(sm.compactKey(c)) }

// Seen reports whether c has been returned or excluded.
func (sm *Sampler) Seen(c Config) bool { return sm.seen.contains(sm.compactKey(c)) }

// claim marks c as used unless it already was, reporting whether it was
// fresh. It computes the key once where Seen followed by Exclude would
// compute it twice.
func (sm *Sampler) claim(c Config) bool { return sm.seen.insert(sm.compactKey(c)) }

// Drawn returns how many distinct configurations have been drawn/excluded.
func (sm *Sampler) Drawn() int { return sm.seen.n }

// Next returns a configuration not previously returned or excluded.
// ok is false when the space is exhausted.
func (sm *Sampler) Next() (Config, bool) {
	c := make(Config, sm.space.NumParams())
	if !sm.NextInto(c) {
		return nil, false
	}
	return c, true
}

// NextInto is Next drawing into dst, which must hold NumParams levels:
// it makes the same draws, returns the same configuration in dst and
// reports false, leaving dst unspecified, when the space is exhausted. A
// caller drawing many configurations can reuse one buffer; the sampler
// keeps no reference to dst.
func (sm *Sampler) NextInto(dst Config) bool {
	if float64(sm.seen.n) >= sm.space.Size() {
		return false
	}
	// Rejection sampling; with |seen| ≤ nmax ≈ 100 and spaces of 1e8-1e12,
	// collisions are essentially nonexistent. For tiny test spaces the
	// fallback below guarantees termination.
	for attempt := 0; attempt < 64; attempt++ {
		if sm.space.randomInto(dst, sm.r); sm.claim(dst) {
			return true
		}
	}
	return sm.exhaustiveNext(dst)
}

// exhaustiveNext enumerates the space in mixed-radix order, in dst, to
// find the k-th unseen configuration for a uniformly drawn k. Only
// reachable when the space is small and mostly consumed.
func (sm *Sampler) exhaustiveNext(dst Config) bool {
	total := int(sm.space.Size())
	remaining := total - sm.seen.n
	if remaining <= 0 {
		return false
	}
	target := sm.r.Intn(remaining)
	clear(dst)
	for i := 0; i < total; i++ {
		if !sm.Seen(dst) {
			if target == 0 {
				sm.Exclude(dst)
				return true
			}
			target--
		}
		if !sm.space.increment(dst) {
			break
		}
	}
	return false
}

// increment advances c to the next configuration in mixed-radix order,
// returning false after wrapping past the last configuration.
func (s *Space) increment(c Config) bool {
	for i := len(c) - 1; i >= 0; i-- {
		c[i]++
		if c[i] < s.params[i].Levels() {
			return true
		}
		c[i] = 0
	}
	return false
}

// SamplePool returns up to n distinct random configurations (fewer only if
// the space is smaller than n). This is the "configuration pool" X_p of
// Algorithms 1 and 2.
func (s *Space) SamplePool(n int, r *rng.RNG) []Config {
	if float64(n) >= s.Size() {
		return s.Enumerate()
	}
	sm := NewSampler(s, r)
	sm.Reserve(n)
	pool := make([]Config, 0, n)
	for len(pool) < n {
		c, ok := sm.Next()
		if !ok {
			break
		}
		pool = append(pool, c)
	}
	return pool
}

// Enumerate returns every configuration of the space in mixed-radix order.
// It panics if the space has more than 1<<22 configurations.
func (s *Space) Enumerate() []Config {
	size := s.Size()
	if size > 1<<22 {
		panic("space: Enumerate on a space that is too large")
	}
	out := make([]Config, 0, int(size))
	c := s.Default()
	for {
		out = append(out, c.Clone())
		if !s.increment(c) {
			return out
		}
	}
}

// Neighbors returns the configurations reachable from c by moving one
// parameter one level up or down (used by local-search techniques).
func (s *Space) Neighbors(c Config) []Config {
	var out []Config
	for i, p := range s.params {
		if c[i] > 0 {
			n := c.Clone()
			n[i]--
			out = append(out, n)
		}
		if c[i] < p.Levels()-1 {
			n := c.Clone()
			n[i]++
			out = append(out, n)
		}
	}
	return out
}

// SortedNames returns the parameter names sorted alphabetically (useful
// for deterministic reporting).
func (s *Space) SortedNames() []string {
	names := s.Names()
	sort.Strings(names)
	return names
}
