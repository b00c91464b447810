package forest

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// TestSortByXMatchesSortFunc: sortByX leaves every input in exactly the
// permutation slices.SortFunc gives it with a comparator negative when
// x < x'. Each pair's y is its input position, so a tie that lands in
// another order shows. Random tie-heavy inputs of every length up to 300
// cover insertion sort and the median-of-three and ninther pivots;
// all-equal, sorted, reversed and sawtooth inputs up to 5 000 pairs run
// the equal-partition, partial-insertion, reversal and break-patterns
// paths.
func TestSortByXMatchesSortFunc(t *testing.T) {
	check := func(name string, xs []float64) {
		t.Helper()
		got := make([]xy, len(xs))
		for i, x := range xs {
			got[i] = xy{x: x, y: float64(i)}
		}
		want := slices.Clone(got)
		slices.SortFunc(want, func(a, b xy) int { return cmp.Compare(a.x, b.x) })
		sortByX(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sortByX %v, slices.SortFunc %v", name, got, want)
		}
	}
	r := rng.New(24)
	for n := 0; n <= 300; n++ {
		for _, distinct := range []int{1, 2, 3, 7, 40} {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(distinct)) / 4
			}
			check(fmt.Sprintf("random/n-%d/distinct-%d", n, distinct), xs)
		}
	}
	for _, n := range []int{13, 49, 50, 64, 300, 1000, 5000} {
		equal := make([]float64, n)
		sorted := make([]float64, n)
		reversed := make([]float64, n)
		sawtooth := make([]float64, n)
		for i := range sorted {
			equal[i] = 1.5
			sorted[i] = float64(i / 3)
			reversed[i] = float64((n - i) / 3)
			sawtooth[i] = float64(i % 17)
		}
		check(fmt.Sprintf("equal/n-%d", n), equal)
		check(fmt.Sprintf("sorted/n-%d", n), sorted)
		check(fmt.Sprintf("reversed/n-%d", n), reversed)
		check(fmt.Sprintf("sawtooth/n-%d", n), sawtooth)
	}

	// The heapsort fallback needs a run of bad pivots that no input
	// above produces; with no bad pivots allowed it must still sort.
	for _, n := range []int{13, 100, 1000} {
		data := make([]xy, n)
		for i := range data {
			data[i] = xy{x: float64(r.Intn(9)), y: float64(i)}
		}
		pdqsortXY(data, 0, n, 0)
		if !slices.IsSortedFunc(data, func(a, b xy) int { return cmp.Compare(a.x, b.x) }) {
			t.Fatalf("heapsort/n-%d: not sorted: %v", n, data)
		}
		slices.SortFunc(data, func(a, b xy) int { return cmp.Compare(a.y, b.y) })
		for i, p := range data {
			if p.y != float64(i) {
				t.Fatalf("heapsort/n-%d: not a permutation of the input", n)
			}
		}
	}
}
