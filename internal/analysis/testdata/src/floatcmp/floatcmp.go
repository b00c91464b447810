// Package floatcmp is a fixture for the floatcmp analyzer: computed
// equality, non-integral constants, math.NaN comparisons, sort
// comparators, and the allowed integral-sentinel idiom.
package floatcmp

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

func computedEquality(a, b float64) bool {
	return a == b // want "floatcmp: exact float equality on computed values"
}

func computedInequality(a, b float64) bool {
	return a+1 != b*2 // want "floatcmp: exact float equality on computed values"
}

func sentinel(total float64) bool {
	return total == 0
}

func nonIntegral(x float64) bool {
	return x == 0.3 // want "floatcmp: exact equality against non-integral float constant"
}

func nanEquality(x float64) bool {
	return x == math.NaN() // want "floatcmp: comparison with math.NaN"
}

func unguardedSort(xs []float64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want "floatcmp: float ordering in a sort comparator"
}

func guardedSort(xs []float64) {
	sort.Slice(xs, func(i, j int) bool {
		if math.IsNaN(xs[j]) {
			return !math.IsNaN(xs[i])
		}
		return xs[i] < xs[j]
	})
}

func unguardedSortFunc(xs []float64) {
	slices.SortFunc(xs, func(a, b float64) int {
		if a < b { // want "floatcmp: float ordering in a sort comparator"
			return -1
		}
		return 0
	})
}

func unguardedSortStableFunc(xs []float64) {
	slices.SortStableFunc(xs, byValue)
	// A second sort with the same comparator adds no second finding.
	slices.SortFunc(xs, byValue)
}

// byValue is a named comparator; its finding lands in its body.
func byValue(a, b float64) int {
	if a > b { // want "floatcmp: float ordering in a sort comparator"
		return 1
	}
	return 0
}

func cmpCompareSort(xs []float64) {
	slices.SortFunc(xs, func(a, b float64) int { return cmp.Compare(a, b) })
}

func guardedSortFunc(xs []float64) {
	slices.SortFunc(xs, func(a, b float64) int {
		if math.IsNaN(a) || math.IsNaN(b) {
			return cmp.Compare(a, b)
		}
		if a < b {
			return -1
		}
		return 0
	})
}

func suppressedSortFunc(xs []float64) {
	slices.SortFunc(xs, func(a, b float64) int {
		//lint:ignore floatcmp fixture: the caller filtered every NaN
		if a < b {
			return -1
		}
		return 0
	})
}

func intSortFunc(xs []int) {
	slices.SortFunc(xs, func(a, b int) int {
		if a < b {
			return -1
		}
		return 0
	})
}

func exactTie(a, b float64) bool {
	//lint:ignore floatcmp fixture: exact ties are the property under test
	return a == b
}
