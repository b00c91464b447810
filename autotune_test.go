package autotune

import (
	"context"

	"strings"
	"testing"
)

func TestMachinesAndCompilers(t *testing.T) {
	if len(Machines()) != 5 {
		t.Fatal("expected the five machines of Table II")
	}
	if len(Compilers()) != 2 {
		t.Fatal("expected gnu and intel compilers")
	}
	if _, err := MachineByName("Power7"); err != nil {
		t.Fatal(err)
	}
	if _, err := MachineByName("PDP-11"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestKernelLookup(t *testing.T) {
	if len(Kernels()) != 4 {
		t.Fatal("expected the four SPAPT kernels")
	}
	k, err := KernelByName("ATAX")
	if err != nil || k.Space().NumParams() != 13 {
		t.Fatalf("ATAX lookup failed: %v", err)
	}
}

func TestNewKernelProblemValidation(t *testing.T) {
	if _, err := NewKernelProblem("LU", "Sandybridge", "gnu-4.4.7", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewKernelProblem("FFT", "Sandybridge", "gnu-4.4.7", 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if _, err := NewKernelProblem("LU", "Atari", "gnu-4.4.7", 1); err == nil {
		t.Fatal("unknown machine accepted")
	}
	if _, err := NewKernelProblem("LU", "Sandybridge", "msvc", 1); err == nil {
		t.Fatal("unknown compiler accepted")
	}
	if _, err := NewKernelProblem("LU", "Power7", "intel-15.0.1", 1); err == nil {
		t.Fatal("icc on Power7 accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	p, err := NewKernelProblem("LU", "Sandybridge", "gnu-4.4.7", 1)
	if err != nil {
		t.Fatal(err)
	}
	res := RandomSearch(context.Background(), p, 25, 42)
	if len(res.Records) != 25 {
		t.Fatalf("RS evaluated %d", len(res.Records))
	}
	best, _, ok := res.Best()
	if !ok || best.RunTime <= 0 {
		t.Fatal("no best found")
	}
	if p.Space().String(best.Config) == "" {
		t.Fatal("config rendering empty")
	}
}

func TestTransferFlow(t *testing.T) {
	src, _ := NewKernelProblem("LU", "Westmere", "gnu-4.4.7", 1)
	tgt, _ := NewKernelProblem("LU", "Sandybridge", "gnu-4.4.7", 1)
	out, err := Transfer(context.Background(), src, tgt, TransferOptions{
		NMax: 30, PoolSize: 800, Seed: 7, Forest: ForestParams{Trees: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Speedups) != 4 {
		t.Fatalf("speedups for %d variants", len(out.Speedups))
	}
	if out.Pearson == 0 {
		t.Fatal("correlation not computed")
	}
}

func TestManualSurrogatePipeline(t *testing.T) {
	src, _ := NewKernelProblem("MM", "Westmere", "gnu-4.4.7", 1)
	tgt, _ := NewKernelProblem("MM", "Sandybridge", "gnu-4.4.7", 1)
	_, ta := CollectDataset(context.Background(), src, 30, 11)
	sur, err := FitSurrogate(ta, src.Space(), src.Name(), ForestParams{Trees: 25}, 12)
	if err != nil {
		t.Fatal(err)
	}
	biased := BiasedSearch(context.Background(), tgt, sur, 15, 500, 13)
	if len(biased.Records) != 15 {
		t.Fatalf("RSb evaluated %d", len(biased.Records))
	}
	pruned := PrunedSearch(context.Background(), tgt, sur, 15, 500, 20, 14)
	if len(pruned.Records) == 0 {
		t.Fatal("RSp evaluated nothing")
	}
}

func TestMiniAppProblems(t *testing.T) {
	hpl, err := NewHPLProblem("Power7")
	if err != nil {
		t.Fatal(err)
	}
	if hpl.Space().NumParams() != 15 {
		t.Fatal("HPL should have 15 parameters")
	}
	rt, err := NewRTProblem("Sandybridge")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Space().NumParams() != 247 {
		t.Fatalf("RT has %d parameters, want 143+104", rt.Space().NumParams())
	}
	res, pulls := EnsembleTune(context.Background(), hpl, 40, 5)
	if len(res.Records) != 40 || len(pulls) == 0 {
		t.Fatal("ensemble tuning failed")
	}
}

func TestParseKernelFacade(t *testing.T) {
	k, err := ParseKernel(`
kernel tiny input 64
size N = 64
array A[N] elem 8
nest n
loop i = 0 .. N
stmt A[i] = A[i] flops 1
param U_I on i unroll 1..4
param T_I on i tile pow2 0..3
param RT_I on i regtile pow2 0..2
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblemFromKernel(k, "Westmere", "gnu-4.4.7", 1)
	if err != nil {
		t.Fatal(err)
	}
	run, cost := p.Evaluate(p.Space().Default())
	if run <= 0 || cost <= run {
		t.Fatal("parsed kernel does not evaluate")
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(ids))
	}
	rep, err := RunExperiment(context.Background(), "table2", ExperimentConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "Sandybridge") {
		t.Fatal("table2 report incomplete")
	}
}

func TestDatasetAndSurrogatePersistence(t *testing.T) {
	src, _ := NewKernelProblem("LU", "Westmere", "gnu-4.4.7", 1)
	_, ta := CollectDataset(context.Background(), src, 25, 3)

	var csv strings.Builder
	if err := SaveDataset(&csv, ta, src.Space()); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDataset(strings.NewReader(csv.String()), src.Space())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(ta) {
		t.Fatalf("dataset rows %d vs %d", len(loaded), len(ta))
	}

	sur, err := FitSurrogate(ta, src.Space(), src.Name(), ForestParams{Trees: 20}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var js strings.Builder
	if err := SaveSurrogate(&js, sur); err != nil {
		t.Fatal(err)
	}
	sur2, err := LoadSurrogate(strings.NewReader(js.String()), src.Space(), "saved")
	if err != nil {
		t.Fatal(err)
	}
	probe := src.Space().Encode(src.Space().Default())
	if sur.Predict(probe) != sur2.Predict(probe) {
		t.Fatal("loaded surrogate predicts differently")
	}

	// A space of another width is refused at load time; it used to load
	// and panic at the first prediction.
	hpl, err := NewHPLProblem("Westmere")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSurrogate(strings.NewReader(js.String()), hpl.Space(), "saved"); err == nil {
		t.Fatalf("LoadSurrogate bound a %d-feature forest to a %d-parameter space",
			sur.Forest.NumFeatures(), hpl.Space().NumParams())
	}
}

func TestWithFaultsFacade(t *testing.T) {
	p, err := NewKernelProblem("MM", "Westmere", "gnu-4.4.7", 1)
	if err != nil {
		t.Fatal(err)
	}
	rates := FaultProfile("Westmere").ScaledTo(0.4)
	fp := WithFaults(p, rates, 21, ResilientOptions{Retries: 2})
	if fp.Name() != p.Name() {
		t.Fatal("fault wrapper changed the problem identity")
	}
	res := RandomSearch(context.Background(), fp, 60, 21)
	counts := res.Counts()
	if counts.Total() != len(res.Records) {
		t.Fatalf("counts total %d vs %d records", counts.Total(), len(res.Records))
	}
	if counts.Failed == 0 {
		t.Fatal("40% fault rate injected no failures")
	}
	if best, _, ok := res.Best(); !ok || best.Status != EvalOK {
		t.Fatal("no clean best under partial failures")
	}
	// Determinism: the same seed reproduces the same statuses.
	res2 := RandomSearch(context.Background(), WithFaults(p, rates, 21, ResilientOptions{Retries: 2}), 60, 21)
	if res2.Counts() != counts {
		t.Fatalf("fault injection not deterministic: %+v vs %+v", res2.Counts(), counts)
	}
}
