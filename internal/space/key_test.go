package space_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kernels"
	"repro/internal/miniapps"
	"repro/internal/rng"
	"repro/internal/space"
)

// fprintfKey is the rendering Config.Key has always produced. Evalcache
// entries, journal records and fault rolls persist those bytes, so Key
// must reproduce it exactly.
func fprintfKey(c space.Config) string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

func checkKey(t *testing.T, what string, c space.Config) {
	t.Helper()
	if got, want := c.Key(), fprintfKey(c); got != want {
		t.Fatalf("%s: Key(%v) = %q, want %q", what, []int(c), got, want)
	}
}

// TestConfigKeyMatchesFprintf pins Config.Key byte for byte: random,
// default and all-last-level configurations of every Table I space (RT's
// 247 parameters included), multi-digit, negative and extreme levels,
// the empty configuration, and arbitrary int slices.
func TestConfigKeyMatchesFprintf(t *testing.T) {
	spaces := map[string]*space.Space{
		"HPL": miniapps.HPL().Space(),
		"RT":  miniapps.RT().Space(),
	}
	for _, k := range kernels.All() {
		spaces[k.Name] = k.Space()
	}
	for name, spc := range spaces {
		r := rng.NewNamed(2016, "key-"+name)
		for i := 0; i < 200; i++ {
			checkKey(t, name, spc.Random(r))
		}
		checkKey(t, name+" default", spc.Default())
		last := spc.Default()
		for i := range last {
			last[i] = spc.Param(i).Levels() - 1
		}
		checkKey(t, name+" last levels", last)
	}

	for _, c := range []space.Config{
		nil, {}, {0}, {9}, {10}, {99, 100, 1000}, {31, 0, 11, 5},
		{-1, -9, -10, -12345}, {math.MaxInt, math.MinInt, 0},
	} {
		checkKey(t, "fixed", c)
	}

	if err := quick.Check(func(levels []int) bool {
		c := space.Config(levels)
		return c.Key() == fprintfKey(c)
	}, nil); err != nil {
		t.Fatal(err)
	}
}
