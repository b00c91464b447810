package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/search"
)

// digester hashes outputs field by field. Floats are hashed by their
// bits, so two digests agree exactly when the outputs are bit-identical.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) sum() string   { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digester) str(s string) {
	d.int(len(s))
	d.h.Write([]byte(s))
}

func (d *digester) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *digester) ints(vs []int) {
	d.int(len(vs))
	for _, v := range vs {
		d.int(v)
	}
}

func (d *digester) result(r *search.Result) {
	d.str(r.Algorithm)
	d.str(r.Problem)
	d.int(r.Skipped)
	d.int(len(r.Records))
	for _, rec := range r.Records {
		d.ints(rec.Config)
		d.f64(rec.RunTime)
		d.f64(rec.Cost)
		d.f64(rec.Elapsed)
		d.str(rec.Status.String())
		d.int(rec.Retries)
	}
}

// resultDigest digests one search result (the tune workload's op output).
func resultDigest(r *search.Result) string {
	d := newDigester()
	d.result(r)
	return d.sum()
}

// outcomeDigest digests a transfer outcome: the five target runs, the
// speedups of the four variants, and the correlations.
func outcomeDigest(out *core.Outcome) string {
	d := newDigester()
	d.str(out.Source)
	d.str(out.Target)
	for _, r := range []*search.Result{out.RS, out.RSp, out.RSb, out.RSpf, out.RSbf} {
		d.result(r)
	}
	for _, name := range []string{"RSp", "RSb", "RSpf", "RSbf"} {
		sp := out.Speedups[name]
		d.f64(sp.Performance)
		d.f64(sp.SearchTime)
		d.bool(sp.Success)
	}
	d.f64(out.Pearson)
	d.f64(out.Spearman)
	d.f64(out.SurrogateSpearman)
	d.bool(out.Degraded)
	return d.sum()
}

// golden holds per-op output digests for pinned seeds, keyed by
// workload, then seed. Op i of a run must produce digest i of its list.
type golden struct {
	Note      string                         `json:"note"`
	Workloads map[string]map[string][]string `json:"workloads"`
}

// goldenCap bounds how many ops per (workload, seed) are pinned; later
// ops are still checked by every seed-independent check.
const goldenCap = 256

func loadGolden(path string) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Workloads == nil {
		g.Workloads = map[string]map[string][]string{}
	}
	return &g, nil
}

// check compares a run's digests with the pinned ones for its seed and
// returns one message per mismatch. A seed without pinned digests
// checks nothing here.
func (g *golden) check(workload string, seed uint64, digests []string) []string {
	want := g.Workloads[workload][strconv.FormatUint(seed, 10)]
	var bad []string
	for i := 0; i < len(digests) && i < len(want); i++ {
		if digests[i] != want[i] {
			bad = append(bad, fmt.Sprintf("%s op %d: digest %s, golden %s", workload, i, digests[i], want[i]))
		}
	}
	return bad
}

// update pins the run's digests and rewrites the file.
func (g *golden) update(path, workload string, seed uint64, digests []string) error {
	if len(digests) > goldenCap {
		digests = digests[:goldenCap]
	}
	if g.Workloads[workload] == nil {
		g.Workloads[workload] = map[string][]string{}
	}
	g.Workloads[workload][strconv.FormatUint(seed, 10)] = digests
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
