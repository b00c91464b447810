package cachesim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/kernels"
	"repro/internal/stats"
	"repro/internal/transform"
)

func TestCacheGeometryValidation(t *testing.T) {
	if _, err := NewCache(0, 64, 4); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewCache(1000, 64, 4); err == nil {
		t.Fatal("non-divisible capacity accepted")
	}
	if _, err := NewCache(32*1024, 64, 8); err != nil {
		t.Fatal(err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, _ := NewCache(1024, 64, 2)
	if hit, _ := c.Access(0, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _ := c.Access(8, false); !hit {
		t.Fatal("same-line access missed")
	}
	if hit, _ := c.Access(64, false); hit {
		t.Fatal("next line hit cold")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2 sets, 64B lines: lines 0,2,4 map to set 0.
	c, _ := NewCache(256, 64, 2)
	c.Access(0*64, false)
	c.Access(2*64, false)
	c.Access(0*64, false) // refresh line 0: line 2 is now LRU
	c.Access(4*64, false) // evicts line 2
	if hit, _ := c.Access(0*64, false); !hit {
		t.Fatal("recently used line evicted")
	}
	if hit, _ := c.Access(2*64, false); hit {
		t.Fatal("LRU line not evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c, _ := NewCache(128, 64, 1) // direct-mapped, 2 sets
	c.Access(0, true)            // dirty line in set 0
	_, wb := c.Access(128, false)
	if !wb {
		t.Fatal("dirty eviction did not write back")
	}
	_, _, wbs := c.Stats()
	if wbs != 1 {
		t.Fatalf("writebacks = %d", wbs)
	}
	// Clean eviction: no writeback.
	_, wb = c.Access(256, false)
	if wb {
		t.Fatal("clean eviction wrote back")
	}
}

func TestHierarchyFiltering(t *testing.T) {
	l1, _ := NewCache(1024, 64, 2)
	l2, _ := NewCache(8192, 64, 4)
	h := NewHierarchy(l1, l2)
	// Stream over 2KB: fits L2, not L1.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 2048; a += 64 {
			h.Access(a, false)
		}
	}
	m := h.Misses()
	if m[0] != 64 {
		t.Fatalf("L1 misses = %d, want 64 (2KB stream through 1KB cache, twice)", m[0])
	}
	if m[1] != 32 {
		t.Fatalf("L2 misses = %d, want 32 (second pass hits)", m[1])
	}
	if h.MemAccesses != 32 {
		t.Fatalf("memory lines = %d", h.MemAccesses)
	}
}

func TestResetClears(t *testing.T) {
	c, _ := NewCache(512, 64, 2)
	c.Access(0, true)
	c.Reset()
	hits, misses, wbs := c.Stats()
	if hits+misses+wbs != 0 {
		t.Fatal("reset did not clear counters")
	}
	if hit, _ := c.Access(0, false); hit {
		t.Fatal("reset did not clear contents")
	}
}

func smallHierarchy() *Hierarchy {
	l1, _ := NewCache(4*1024, 64, 4)
	l2, _ := NewCache(64*1024, 64, 8)
	return NewHierarchy(l1, l2)
}

func TestTraceCountsAccesses(t *testing.T) {
	mm := kernels.MM(24).Nests[0]
	h := smallHierarchy()
	res, err := Trace(mm, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(24 * 24 * 24 * 3)
	if res.Accesses != want {
		t.Fatalf("accesses = %d, want %d", res.Accesses, want)
	}
	if res.Truncated {
		t.Fatal("unexpected truncation")
	}
}

func TestTraceCap(t *testing.T) {
	mm := kernels.MM(64).Nests[0]
	res, err := Trace(mm, smallHierarchy(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Accesses != 1000 {
		t.Fatalf("cap not respected: %+v", res)
	}
}

func TestTraceRejectsInvalidNest(t *testing.T) {
	mm := kernels.MM(8).Nests[0].Clone()
	mm.Loops[0].Step = 0
	if _, err := Trace(mm, smallHierarchy(), 0); err == nil {
		t.Fatal("invalid nest accepted")
	}
}

// TestTilingReducesSimulatedMisses: the ground-truth check that cache
// tiling reduces real (simulated) memory traffic for a problem larger
// than the cache.
func TestTilingReducesSimulatedMisses(t *testing.T) {
	// 96x96 doubles = 72KB per array; L2 is 64KB.
	base := kernels.MM(96).Nests[0]

	plain, err := Trace(base, smallHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}

	tiled, err := transform.Apply(base, transform.Spec{
		Order:      []string{"i", "j", "k"},
		CacheTiles: transform.Factors{{Var: "i", N: 16}, {Var: "j", N: 16}, {Var: "k", N: 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tiledRes, err := Trace(tiled, smallHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}

	if tiledRes.Accesses != plain.Accesses {
		t.Fatalf("tiling changed the access count: %d vs %d", tiledRes.Accesses, plain.Accesses)
	}
	if tiledRes.MemLines >= plain.MemLines {
		t.Fatalf("tiling did not reduce simulated memory traffic: %d vs %d",
			tiledRes.MemLines, plain.MemLines)
	}
	if float64(plain.MemLines)/float64(tiledRes.MemLines) < 1.5 {
		t.Fatalf("tiling reduction too small: %d vs %d", plain.MemLines, tiledRes.MemLines)
	}
}

// TestAnalyticModelTracksSimulation cross-validates the analytical
// capacity-fit model against the trace-driven simulator: across a set of
// tiling variants, the analytic last-level traffic must rank the
// variants like the simulated memory traffic does.
func TestAnalyticModelTracksSimulation(t *testing.T) {
	base := kernels.MM(96).Nests[0]
	specs := []transform.Spec{
		{Order: []string{"i", "j", "k"}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "i", N: 8}, {Var: "j", N: 8}, {Var: "k", N: 8}}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "i", N: 16}, {Var: "j", N: 16}, {Var: "k", N: 16}}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "i", N: 32}, {Var: "j", N: 32}, {Var: "k", N: 32}}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "i", N: 16}, {Var: "j", N: 64}, {Var: "k", N: 4}}},
		{Order: []string{"i", "j", "k"}, CacheTiles: transform.Factors{{Var: "k", N: 16}}},
	}

	params := cache.Params{
		LineBytes: 64,
		Levels: []cache.Level{
			{Name: "L1", CapacityBytes: 4 * 1024},
			{Name: "L2", CapacityBytes: 64 * 1024},
		},
		CapacityFraction: 0.75,
	}

	var analytic, simulated []float64
	for _, spec := range specs {
		variant, err := transform.Apply(base, spec)
		if err != nil {
			t.Fatal(err)
		}
		an, err := cache.Analyze(variant, params)
		if err != nil {
			t.Fatal(err)
		}
		analytic = append(analytic, an.Traffic[len(an.Traffic)-1])

		res, err := Trace(variant, smallHierarchy(), 0)
		if err != nil {
			t.Fatal(err)
		}
		simulated = append(simulated, float64(res.MemLines))
	}

	rho, err := stats.Spearman(analytic, simulated)
	if err != nil {
		t.Fatal(err)
	}
	if rho < 0.7 {
		t.Fatalf("analytic model ranks variants unlike the simulator: spearman=%.3f\nanalytic: %v\nsimulated: %v",
			rho, analytic, simulated)
	}
}

// TestTriangularTrace: the interpreter must respect triangular bounds.
func TestTriangularTrace(t *testing.T) {
	lu := kernels.LU(16).Nests[0]
	res, err := Trace(lu, smallHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Body executes sum_{k=0}^{14} (15-k)^2 = 1240 times, 3 refs each.
	var want uint64
	for k := 0; k < 16; k++ {
		n := uint64(16 - k - 1)
		want += n * n * 3
	}
	if res.Accesses != want {
		t.Fatalf("triangular accesses = %d, want %d", res.Accesses, want)
	}
}
