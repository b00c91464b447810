package kernels_test

// The cost-model fingerprint pins every bit the simulator computes. Each
// probe evaluates one (problem, configuration) pair and records the IEEE
// bits of its run time and search cost; the probe set covers every kernel
// on every machine under every compiler that machine supports, at one
// thread, at the machine's full hardware thread count, and at that count
// with the OpenMP switch forced on, plus the HPL and RT mini-apps on every
// machine. A speedup of the cost model must leave this file untouched;
// a deliberate model change regenerates it with
//
//	go test ./internal/kernels -run TestCostModelFingerprint -update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/miniapps"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/space"
)

var update = flag.Bool("update", false, "regenerate testdata/costmodel.golden")

const (
	fingerprintFile = "testdata/costmodel.golden"
	fingerprintHash = "testdata/costmodel.sha256"
	// fingerprintDraws is the number of random configurations per
	// problem, drawn from rng.NewNamed(fingerprintSeed, problem name).
	fingerprintDraws = 12
	fingerprintSeed  = 2016
)

// evaluator is the slice of search.Problem the fingerprint drives.
type evaluator interface {
	Name() string
	Space() *space.Space
	Evaluate(space.Config) (runTime, cost float64)
}

// fingerprintProblems returns the probe problems in a fixed order.
func fingerprintProblems() []evaluator {
	var out []evaluator
	for _, k := range kernels.All() {
		for _, m := range machine.All() {
			for _, comp := range machine.Compilers() {
				if !m.SupportsCompiler(comp) {
					continue
				}
				max := m.Cores * m.SMTPerCore
				for _, th := range []struct {
					n     int
					force bool
				}{{1, false}, {max, false}, {max, true}} {
					p := kernels.NewProblem(k, sim.Target{Machine: m, Compiler: comp, Threads: th.n})
					p.ForceOMP = th.force
					out = append(out, p)
				}
			}
		}
	}
	for _, m := range machine.All() {
		out = append(out, miniapps.NewProblem(miniapps.HPL(), m), miniapps.NewProblem(miniapps.RT(), m))
	}
	return out
}

// fingerprintConfigs returns the identity configuration, the all-maximum
// configuration and fingerprintDraws seeded random ones, with labels.
func fingerprintConfigs(p evaluator) (labels []string, cs []space.Config) {
	spc := p.Space()
	max := make(space.Config, spc.NumParams())
	for i := range max {
		max[i] = spc.Param(i).Levels() - 1
	}
	labels = append(labels, "identity", "max")
	cs = append(cs, spc.Default(), max)
	r := rng.NewNamed(fingerprintSeed, p.Name())
	for i := 0; i < fingerprintDraws; i++ {
		labels = append(labels, fmt.Sprintf("rand%02d", i))
		cs = append(cs, spc.Random(r))
	}
	return labels, cs
}

// fingerprint renders one line per probe: problem, label, configuration
// key, and the bits of run time and search cost.
func fingerprint() []byte {
	var b bytes.Buffer
	b.WriteString("# problem label config run-bits cost-bits\n")
	for _, p := range fingerprintProblems() {
		labels, cs := fingerprintConfigs(p)
		for i, c := range cs {
			run, cost := p.Evaluate(c)
			fmt.Fprintf(&b, "%s %s %s %016x %016x\n", p.Name(), labels[i], c.Key(),
				math.Float64bits(run), math.Float64bits(cost))
		}
	}
	return b.Bytes()
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestCostModelFingerprint checks every probe against the committed
// golden file, naming the first probe whose bits moved, and checks the
// golden file against its committed hash.
func TestCostModelFingerprint(t *testing.T) {
	got := fingerprint()
	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintHash, []byte(sha256Hex(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", fingerprintFile, len(got))
		return
	}
	want, err := os.ReadFile(fingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	hash, err := os.ReadFile(fingerprintHash)
	if err != nil {
		t.Fatal(err)
	}
	if h := strings.TrimSpace(string(hash)); h != sha256Hex(want) {
		t.Fatalf("%s does not match %s: the golden file was edited by hand", fingerprintFile, fingerprintHash)
	}
	if bytes.Equal(got, want) {
		return
	}
	gs, ws := bufio.NewScanner(bytes.NewReader(got)), bufio.NewScanner(bytes.NewReader(want))
	for line := 1; ; line++ {
		gok, wok := gs.Scan(), ws.Scan()
		if !gok || !wok {
			t.Fatalf("line %d: probe count changed (got more: %v, golden more: %v)", line, gok, wok)
		}
		if gs.Text() != ws.Text() {
			t.Fatalf("line %d: first probe that differs:\n got  %s\n want %s", line, gs.Text(), ws.Text())
		}
	}
}
