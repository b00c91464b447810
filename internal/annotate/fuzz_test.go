package annotate

import "testing"

// FuzzParse feeds arbitrary text to Parse. It must never panic, and a
// kernel it accepts must have a space whose default configuration
// validates. The committed corpus under testdata/fuzz/FuzzParse holds
// the built-in MM and LU annotations, a minimal kernel, and ranges
// Parse must refuse: a negative tile exponent (which panicked in the
// space constructor), an exponent past 2^30, an unroll factor below 1,
// and an unroll range too large to allocate.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		k, err := Parse(text)
		if err != nil {
			return
		}
		spc := k.Space()
		if err := spc.Validate(spc.Default()); err != nil {
			t.Fatalf("parsed kernel's default config does not validate: %v\n%s", err, text)
		}
	})
}
