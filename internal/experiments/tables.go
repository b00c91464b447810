package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/spec"
	"repro/internal/tabulate"
)

// runTable1 prints the transformation catalogue of Table I.
func runTable1(context.Context, Config) (*Report, error) {
	tb := tabulate.NewTable("", "Transformation", "Description", "Range")
	tb.AddRow("Loop unrolling", "data reuse", "1, ..., 31, 32")
	tb.AddRow("Cache tiling", "cache hits", "2^0, ..., 2^10, 2^11")
	tb.AddRow("Register tiling", "cache to register loads", "2^0, ..., 2^4, 2^5")

	// Verify the catalogue against the kernels that use the full ranges.
	mm, err := kernels.ByName("MM")
	if err != nil {
		return nil, err
	}
	s := mm.Space()
	values := map[string]float64{
		"unroll_max":  float64(s.Param(s.Index("U_I")).Value(s.Param(s.Index("U_I")).Levels() - 1)),
		"tile_max":    float64(s.Param(s.Index("T_I")).Value(s.Param(s.Index("T_I")).Levels() - 1)),
		"regtile_max": float64(s.Param(s.Index("RT_I")).Value(s.Param(s.Index("RT_I")).Levels() - 1)),
	}
	return &Report{Text: tb.String(), Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// runTable2 prints the machine set of Table II.
func runTable2(context.Context, Config) (*Report, error) {
	tb := tabulate.NewTable("", "Name", "Processor", "Cores", "Clock (GHz)",
		"L1 (KB)", "L2 (KB)", "L3 (MB)", "Memory (GB)")
	values := map[string]float64{}
	for _, m := range machine.All() {
		l3 := fmt.Sprintf("%g", m.L3MB)
		if m.L3MB == 0 {
			l3 = "-"
		} else if m.L3Shared {
			l3 += " (shared)"
		} else {
			l3 += " (per core)"
		}
		tb.AddRow(m.Name, m.Processor, fmt.Sprintf("%d", m.Cores),
			fmt.Sprintf("%g", m.ClockGHz), fmt.Sprintf("%d", m.L1KB),
			fmt.Sprintf("%d", m.L2KB), l3, fmt.Sprintf("%d", m.MemoryGB))
		values[m.Name+"/cores"] = float64(m.Cores)
		values[m.Name+"/clock"] = m.ClockGHz
	}
	return &Report{Text: tb.String(), Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// runTable3 prints the kernel collection of Table III alongside the
// paper's published sizes.
func runTable3(context.Context, Config) (*Report, error) {
	paper := map[string]float64{"MM": 8.58e10, "ATAX": 2.57e12, "COR": 8.57e10, "LU": 5.83e8}
	tb := tabulate.NewTable("", "Kernel", "n_i", "Search Space Size", "Paper Size", "Input Size")
	values := map[string]float64{}
	for _, k := range kernels.All() {
		size := k.Space().Size()
		tb.AddRow(k.Name, fmt.Sprintf("%d", k.Space().NumParams()),
			fmt.Sprintf("%.3g", size), fmt.Sprintf("%.3g", paper[k.Name]), k.InputSize)
		values[k.Name+"/params"] = float64(k.Space().NumParams())
		values[k.Name+"/size"] = size
	}
	text := tb.String() + "\nSizes are reconstructed from Table I's transformation" +
		" ranges; parameter counts match Table III exactly and sizes to the" +
		" same order of magnitude (see EXPERIMENTS.md).\n"
	return &Report{Text: text, Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// speedupGrid runs the biased model variant over a source x target grid
// and renders it in the layout of Tables IV and V.
func speedupGrid(ctx context.Context, cfg Config, workloads []string, sources, targets []machine.Machine,
	comp machine.Compiler, threadsFor func(machine.Machine) int,
	skip func(workload string, tgt machine.Machine) bool) (*Report, error) {

	headers := []string{"Kernel", "Target"}
	for _, s := range sources {
		headers = append(headers, s.Name+" Prf", s.Name+" Srh")
	}
	tb := tabulate.NewTable("", headers...)
	values := map[string]float64{}

	// The grid cells are independent transfer experiments with their own
	// derived seeds, so they run concurrently on the shared pool engine;
	// assembly below stays in deterministic row order.
	type cellKey struct{ wl, src, tgt string }
	var jobs []cellKey
	for _, wl := range workloads {
		for _, tgtM := range targets {
			for _, srcM := range sources {
				if srcM.Name == tgtM.Name {
					continue
				}
				if skip != nil && (skip(wl, tgtM) || skip(wl, srcM)) {
					continue
				}
				jobs = append(jobs, cellKey{wl, srcM.Name, tgtM.Name})
			}
		}
	}
	on := func(name string) spec.Spec {
		m, _ := machine.ByName(name)
		return spec.Spec{Machine: name, Compiler: comp.Name, Threads: threadsFor(m)}
	}
	// Every target of a (workload, source) pair shares the cell seed
	// "wl-"+workload, so the source RS, the surrogate and the scored pool
	// are the same for all of them: phase one builds each such prelude
	// once, in input order, and phase two runs the target cells on them.
	type preludeKey struct{ wl, src string }
	var keys []preludeKey
	preludeOf := map[preludeKey]int{}
	for _, job := range jobs {
		k := preludeKey{job.wl, job.src}
		if _, ok := preludeOf[k]; !ok {
			preludeOf[k] = len(keys)
			keys = append(keys, k)
		}
	}
	preludes := make([]*core.Prelude, len(keys))
	err := runCells(ctx, cfg, "speedup-grid-preludes", len(keys), func(ctx context.Context, i int) error {
		var err error
		preludes[i], err = prepare(ctx, cfg, "wl-"+keys[i].wl, keys[i].wl, on(keys[i].src))
		return err
	})
	if err != nil {
		return nil, err
	}
	results := make([]core.Speedups, len(jobs))
	err = runCells(ctx, cfg, "speedup-grid", len(jobs), func(ctx context.Context, i int) error {
		job := jobs[i]
		tp, err := problemFor(ctx, job.wl, on(job.tgt))
		if err != nil {
			return err
		}
		out, err := preludes[preludeOf[preludeKey{job.wl, job.src}]].Run(ctx, tp)
		if err != nil {
			return err
		}
		results[i] = out.Speedups["RSb"]
		return nil
	})
	if err != nil {
		return nil, err
	}

	byKey := map[cellKey]core.Speedups{}
	for i, job := range jobs {
		byKey[job] = results[i]
	}

	for _, wl := range workloads {
		for _, tgtM := range targets {
			row := []string{wl, tgtM.Name}
			for _, srcM := range sources {
				sp, ok := byKey[cellKey{wl, srcM.Name, tgtM.Name}]
				if !ok {
					// Diagonal or skipped: the paper could not collect
					// these (run/compile times too high on X-Gene).
					row = append(row, "-", "-")
					continue
				}
				perf, srh := tabulate.F(sp.Performance), tabulate.F(sp.SearchTime)
				if sp.Success {
					perf, srh = tabulate.Bold(perf), tabulate.Bold(srh)
				}
				row = append(row, perf, srh)
				key := fmt.Sprintf("%s/%s->%s", wl, srcM.Name, tgtM.Name)
				values[key+"/perf"] = sp.Performance
				values[key+"/search"] = sp.SearchTime
			}
			tb.AddRow(row...)
		}
	}

	text := tb.String() + "\nPrf and Srh are the performance and search-time speedups of RSb" +
		" over RS; *bold* entries mark the paper's success criterion" +
		" (better code variant found in shorter search time).\n"
	return &Report{Text: text, Tables: []*tabulate.Table{tb}, Values: values}, nil
}

// runTable4 reproduces Table IV: the full GNU-compiler grid.
func runTable4(ctx context.Context, cfg Config) (*Report, error) {
	sources := []machine.Machine{machine.Westmere, machine.Sandybridge, machine.Power7}
	targets := []machine.Machine{machine.Westmere, machine.Sandybridge, machine.Power7, machine.XGene}
	workloads := []string{"MM", "ATAX", "LU", "COR", "HPL", "RT"}
	skip := func(wl string, m machine.Machine) bool {
		// "We were not able to collect data for all the problems since
		// their run times or compilation times were too high on the ARM
		// X-Gene": the paper's Table IV has no X-Gene entries for MM and
		// COR.
		return m.Name == machine.XGene.Name && (wl == "MM" || wl == "COR")
	}
	rep, err := speedupGrid(ctx, cfg, workloads, sources, targets, machine.GNU,
		func(machine.Machine) int { return 1 }, skip)
	if err != nil {
		return nil, err
	}
	rep.Text = "RSb speedups over RS for every (source, target) machine pair\n" +
		"(GNU 4.4.7, -O3; serial kernels; HPL/RT via the mini-app models).\n\n" + rep.Text
	return rep, nil
}

// runTable5 reproduces Table V: the Xeon Phi grid under the Intel
// compiler with OpenMP (8 threads on the big cores, 60 on the Phi).
func runTable5(ctx context.Context, cfg Config) (*Report, error) {
	ms := []machine.Machine{machine.Westmere, machine.Sandybridge, machine.XeonPhi}
	threads := func(m machine.Machine) int {
		if m.Name == machine.XeonPhi.Name {
			return 60
		}
		return 8
	}
	rep, err := speedupGrid(ctx, cfg, []string{"MM", "LU", "COR"}, ms, ms, machine.Intel, threads, nil)
	if err != nil {
		return nil, err
	}
	rep.Text = "RSb speedups over RS for the Xeon Phi experiments\n" +
		"(icc 15.0.1, -O3, OpenMP; 8 threads on Westmere/Sandybridge, 60 on the Phi).\n\n" + rep.Text
	return rep, nil
}

// Summary renders the named values of a report (used by EXPERIMENTS.md
// generation and by cmd/experiments -values).
func Summary(rep *Report) string {
	var b strings.Builder
	for _, k := range sortedKeys(rep.Values) {
		fmt.Fprintf(&b, "%-48s %10.4g\n", k, rep.Values[k])
	}
	return b.String()
}
