package forest

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// sameForest fits X, y with Fit and with the sort.Slice reference fitter
// and reports whether the two save byte for byte the same: every split's
// feature, threshold, gain and count, and the OOB error.
func sameForest(t *testing.T, X [][]float64, y []float64, p Params, seed uint64) bool {
	t.Helper()
	got, err := Fit(X, y, p, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fit(X, y, p, rng.New(seed), referenceTree)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := got.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(&b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(a.Bytes(), b.Bytes())
}

// adversarialData builds n rows whose candidate features tie: column 1
// duplicates column 0, column 2 is column 0 reversed and column 3 merges
// its levels in pairs (so both split the rows as column 0 does at some
// boundaries, summing the same rows in other orders), column 4 is
// continuous, and the rest are fresh few-level columns. The targets
// follow column 0 plus noise; with offset 1e6 and noise 1e-7 every
// candidate's gain lies inside the screen's slack.
func adversarialData(r *rng.RNG, n, nf int, offset, noise float64) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, nf)
		a := float64(r.Intn(5))
		for f := range row {
			switch f {
			case 0, 1:
				row[f] = a
			case 2:
				row[f] = 4 - a
			case 3:
				row[f] = math.Floor(a / 2)
			case 4:
				row[f] = r.Float64()
			default:
				row[f] = float64(r.Intn(2 + f%4))
			}
		}
		X[i] = row
		y[i] = offset + 0.3*a + noise*r.NormFloat64()
	}
	return X, y
}

// TestScreenedSplitMatchesReference: on inputs built to make the screen's
// estimates tie or nearly tie (duplicated columns, different columns that
// split the rows alike, targets far above their spread, continuous
// features) and over MinLeaf, MTry and n from 2 to 300, the screened fit
// saves byte-identical to the reference fitter's.
func TestScreenedSplitMatchesReference(t *testing.T) {
	const nf = 9
	r := rng.New(32)
	targets := []struct {
		name          string
		offset, noise float64
	}{
		{"spread", 0, 1},
		{"near-ties", 0, 1e-9},
		{"inside-slack", 1e6, 1e-7},
	}
	for _, n := range []int{2, 3, 5, 8, 13, 40, 100, 300} {
		for _, tg := range targets {
			X, y := adversarialData(r, n, nf, tg.offset, tg.noise)
			for _, minLeaf := range []int{1, 2, 5} {
				for _, mtry := range []int{1, nf / 3, nf} {
					p := Params{Trees: 4, MinLeaf: minLeaf, MTry: mtry}
					if !sameForest(t, X, y, p, uint64(n)) {
						t.Errorf("n=%d %s minleaf=%d mtry=%d: forest differs from the reference", n, tg.name, minLeaf, mtry)
					}
				}
			}
		}
	}
}

// TestFitRefusesNonFinite: NaN or an infinity anywhere in X or y is an
// error from Fit and FitTree alike, before any tree is grown.
func TestFitRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, where := range []string{"X", "y"} {
			X := [][]float64{{1, 2}, {3, 4}, {5, 6}}
			y := []float64{1, 2, 3}
			if where == "X" {
				X[1][1] = bad
			} else {
				y[2] = bad
			}
			name := fmt.Sprintf("%v in %s", bad, where)
			if _, err := Fit(X, y, Params{Trees: 2}, rng.New(1)); err == nil {
				t.Errorf("Fit accepted %s", name)
			}
			if _, err := FitTree(X, y, TreeParams{}, nil); err == nil {
				t.Errorf("FitTree accepted %s", name)
			}
		}
	}
}

// FuzzFitMatchesReference decodes bytes into a small few-level X and y,
// so near-tied candidates are common, and holds Fit to the reference
// fitter by Save bytes. The first three bytes choose the shape: rows
// (2–65, fewer if the input runs out), features (1–8), MinLeaf (1–4),
// MTry (0 = the default, up to all) and the targets' scale; then each row
// takes one byte per feature (levels 0–3) and one for its target.
func FuzzFitMatchesReference(fz *testing.F) {
	fz.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n, nf := 2+int(data[0]%64), 1+int(data[1]%8)
		minLeaf, mtry := 1+int(data[2]&3), int(data[2]>>2&7)%(nf+1)
		offset, scale := 0.0, 1.0
		if data[2]&0x20 != 0 {
			offset, scale = 1e6, 1e-7
		}
		data = data[3:]
		if n = min(n, len(data)/(nf+1)); n < 2 {
			return
		}
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			row := data[i*(nf+1) : (i+1)*(nf+1)]
			X[i] = make([]float64, nf)
			for f := range X[i] {
				X[i][f] = float64(row[f] & 3)
			}
			y[i] = offset + scale*float64(int8(row[nf]))/7
		}
		p := Params{Trees: 3, MinLeaf: minLeaf, MTry: mtry}
		if !sameForest(t, X, y, p, uint64(len(data))) {
			t.Fatalf("n=%d nf=%d minleaf=%d mtry=%d: forest differs from the reference", n, nf, minLeaf, mtry)
		}
	})
}
