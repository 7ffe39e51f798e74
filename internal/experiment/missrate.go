package experiment

import (
	"fmt"

	"bcache/internal/cache"
	"bcache/internal/energy"
	"bcache/internal/workload"
)

// Figures 4, 5 and 12: miss-rate reductions over the direct-mapped
// baseline.

func init() {
	register(Experiment{
		ID:     "fig4",
		Title:  "Data cache miss rate reductions, 16kB (2/4/8/32-way, victim16, B-Cache MF=2..16 BAS=8)",
		Run:    runFig4,
		Sweeps: fig4Sweeps,
	})
	register(Experiment{
		ID:     "fig5",
		Title:  "Instruction cache miss rate reductions, 16kB (reported benchmarks)",
		Run:    runFig5,
		Sweeps: fig5Sweeps,
	})
	register(Experiment{
		ID:     "fig12",
		Title:  "Miss rate reductions at 8kB and 32kB (12 configurations)",
		Run:    runFig12,
		Sweeps: fig12Sweeps,
	})
}

// reductionTable renders one figure panel: rows = benchmarks (+Ave),
// columns = configurations, cells = % reduction vs. baseline, with the
// baseline miss rate as the second column for context. Profiles missing
// from res — units lost to an interrupt or a failure — are skipped, so
// partial runs still render the rows they completed.
func reductionTable(id, title, note string, profiles []*workload.Profile,
	specs []Spec, res map[string]map[string]missRun) *Table {

	t := &Table{ID: id, Title: title, Note: note}
	t.Headers = append([]string{"benchmark", "base-miss"}, specNames(specs)...)
	sums := make([]float64, len(specs))
	included := 0
	for _, p := range profiles {
		row, ok := res[p.Name]
		if !ok {
			continue
		}
		included++
		base := row["baseline"]
		cells := []string{p.Name, pct(base.missRate)}
		for i, s := range specs {
			r := reduction(base, row[s.Name])
			sums[i] += r
			cells = append(cells, pct(r))
		}
		t.AddRow(cells...)
	}
	if included > 0 {
		ave := []string{"Ave", ""}
		for _, s := range sums {
			ave = append(ave, pct(s/float64(included)))
		}
		t.AddRow(ave...)
	}
	if included < len(profiles) {
		t.Note = fmt.Sprintf("%s [partial: %d/%d benchmarks completed]", t.Note, included, len(profiles))
	}
	return t
}

func specNames(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// fig4Sweeps: every benchmark's D$ at the figure configurations.
func fig4Sweeps(opts Opts) []sweep {
	return []sweep{{opts, workload.All(), figureSpecs(), dSide}}
}

// fig5Sweeps: the I$ of the benchmarks Figure 5 reports.
func fig5Sweeps(opts Opts) []sweep {
	return []sweep{{opts, reportedICacheProfiles(), figureSpecs(), iSide}}
}

func runFig4(opts Opts) ([]*Table, error) {
	sw := fig4Sweeps(opts)[0]
	res, err := missRates(sw.opts, sw.profiles, sw.specs, sw.side)
	if err != nil && len(res) == 0 {
		return nil, err
	}
	note := fmt.Sprintf("synthetic SPEC2K surrogates, %d instructions, LRU", opts.Instructions)
	var tables []*Table
	for _, suite := range []string{"CFP2K", "CINT2K"} { // paper order: FP panel first
		tables = append(tables, reductionTable(
			"fig4", fmt.Sprintf("D$ miss rate reductions over 16kB direct-mapped baseline (%s)", suite),
			note, workload.Suite(suite), sw.specs, res))
	}
	return tables, err
}

func runFig5(opts Opts) ([]*Table, error) {
	sw := fig5Sweeps(opts)[0]
	res, err := missRates(sw.opts, sw.profiles, sw.specs, sw.side)
	if err != nil && len(res) == 0 {
		return nil, err
	}
	note := fmt.Sprintf("benchmarks with I$ miss rate ≥ 0.01%%; %d instructions", opts.Instructions)
	t := reductionTable("fig5", "I$ miss rate reductions over 16kB direct-mapped baseline",
		note, sw.profiles, sw.specs, res)
	return []*Table{t}, err
}

// fig12Specs: the twelve configurations of Figure 12 — conventional
// 2/4/8-way, victim16, and the B-Cache at MF ∈ {2,4,8,16} × BAS ∈ {4,8}.
func fig12Specs() []Spec {
	specs := []Spec{
		setAssocSpec(2, energy.Way2), setAssocSpec(4, energy.Way4),
		setAssocSpec(8, energy.Way8), victimSpec(16),
	}
	for _, bas := range []int{4, 8} {
		for _, mf := range []int{2, 4, 8, 16} {
			specs = append(specs, bcacheSpec(mf, bas, cache.LRU))
		}
	}
	// Give unambiguous names to the BAS=8 variants too.
	for i := range specs {
		if specs[i].Name == "MF2" || specs[i].Name == "MF4" ||
			specs[i].Name == "MF8" || specs[i].Name == "MF16" {
			specs[i].Name += "/BAS8"
		}
	}
	return specs
}

// fig12Sweeps: both L1 sizes in paper panel order (32kB, then 8kB),
// each with the D$ of every benchmark, then the I$ of the reported ones.
func fig12Sweeps(opts Opts) []sweep {
	var sweeps []sweep
	for _, size := range []int{32 * 1024, 8 * 1024} {
		o := opts
		o.L1Size = size
		sweeps = append(sweeps,
			sweep{o, workload.All(), fig12Specs(), dSide},
			sweep{o, reportedICacheProfiles(), fig12Specs(), iSide})
	}
	return sweeps
}

func runFig12(opts Opts) ([]*Table, error) {
	var tables []*Table
	for _, sw := range fig12Sweeps(opts) {
		res, err := missRates(sw.opts, sw.profiles, sw.specs, sw.side)
		if err != nil {
			return nil, err
		}
		tag := "D$"
		if sw.side == iSide {
			tag = "I$"
		}
		size := sw.opts.L1Size / 1024
		// Figure 12 plots suite averages only.
		t := &Table{
			ID:    "fig12",
			Title: fmt.Sprintf("Average miss rate reductions, %dkB %s", size, tag),
			Note:  "averaged over the benchmarks Figures 4/5 report for this side",
		}
		t.Headers = append([]string{"group"}, specNames(sw.specs)...)
		cells := []string{fmt.Sprintf("%dK %s", size, tag)}
		for _, sp := range sw.specs {
			cells = append(cells, pct(sw.meanReduction(res, sp.Name)))
		}
		t.AddRow(cells...)
		tables = append(tables, t)
	}
	return tables, nil
}
