// Package search declares the fixture's deterministic roots: its path
// mirrors internal/search, so every exported function is a root. No
// function here calls a clock directly — each finding requires the
// call graph — which is exactly what the per-file nodeterm analyzer
// cannot see (TestDetFlowCatchesWhatNoDetermMisses pins that).
package search

import (
	"sort"
	"time"

	rngfix "repro/internal/analysis/testdata/src/detflow/internal/rng"
	"repro/internal/analysis/testdata/src/detflow/internal/timeutil"
)

// sampler is dispatched through an interface: the call graph resolves
// it conservatively to every implementation in the analyzed set.
type sampler interface {
	Sample() float64
}

// Pick reaches timeutil.Stamp's clock read through a direct
// cross-package call.
func Pick() float64 {
	return timeutil.Stamp()
}

// Drive reaches Jitter.Sample through interface dispatch.
func Drive(s sampler) float64 {
	return s.Sample()
}

// Hedge reaches Jitter.Sample through a captured method value.
func Hedge() float64 {
	j := timeutil.Jitter{}
	f := j.Sample
	return f()
}

// plan carries a function-typed field; calling it resolves to every
// address-taken function of matching signature.
type plan struct {
	gen func() float64
}

// RunPlan reaches Jitter.Sample through the function-typed field.
func RunPlan(p plan) float64 {
	return p.gen()
}

// Keys leaks map iteration order into its return value: the one source
// kind that is intrinsic to the root itself.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "detflow: map range \(order reaches return value\) \(map order\) reaches deterministic root search\.Keys"
	}
	return out
}

// SortedKeys is the sanctioned shape: the sort call sanitizes the
// append before the slice returns.
func SortedKeys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Capture takes the clock function as a value without calling it at
// the capture site — nodeterm's call matcher misses this shape even
// inside its own Match scope.
func Capture() int64 {
	f := time.Now // want "detflow: time\.Now \(captured as a function value\) \(wall clock\) reaches deterministic root search\.Capture"
	return f().UnixNano()
}

// Seeded calls into the sanitized rng package: its clock read is
// sanctioned and must produce no finding.
func Seeded() float64 {
	return rngfix.Jitter()
}

// Weigh folds float products into a total in map order: float addition
// is not associative, so the total's last bits follow the randomized
// iteration order.
func Weigh(w, x map[string]float64) float64 {
	total := 0.0
	for k, c := range w {
		total += c * x[k] // want "detflow: float accumulation over map range \(map order\) reaches deterministic root search\.Weigh"
	}
	return total
}

// span is an accumulator reached through a field.
type span struct{ lo, hi float64 }

// Bounds accumulates into a field of a variable declared outside the
// loop, and into a plain variable in the v = v + x form.
func Bounds(w map[string]float64) (span, float64) {
	var out span
	sum := 0.0
	for _, c := range w {
		out.lo -= c   // want "detflow: float accumulation over map range"
		sum = sum + c // want "detflow: float accumulation over map range"
	}
	return out, sum
}

// WeighSorted is the sanctioned shape: ranging over sorted keys fixes
// the summation order.
func WeighSorted(w, x map[string]float64) float64 {
	keys := make([]string, 0, len(w))
	for k := range w {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0.0
	for _, k := range keys {
		total += w[k] * x[k]
	}
	return total
}

// Count accumulates integers, which are exact in any order, and a float
// local to one iteration: neither is a finding.
func Count(m map[string]int) (int, float64) {
	n, last := 0, 0.0
	for _, v := range m {
		n += v
		f := 0.0
		f += float64(v)
		last = f
	}
	return n, last
}
