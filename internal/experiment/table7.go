package experiment

import (
	"fmt"

	"bcache/internal/stats"
	"bcache/internal/workload"
)

// Table 7: data-cache set-balance behaviour of the baseline (dm) vs the
// B-Cache (bc). Column names follow the paper: fhs = frequent-hit sets,
// ch = cache hits occurring in them, fms = frequent-miss sets, cm = cache
// misses occurring in them, las = less-accessed sets, tca = share of
// total accesses they carry.

func init() {
	register(Experiment{
		ID:    "table7",
		Title: "Data cache memory access behaviour (set balance), baseline vs B-Cache",
		Run:   runTable7,
	})
}

func runTable7(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	all := workload.All()
	t := &Table{
		ID:    "table7",
		Title: "Set balance: fhs/ch, fms/cm, las/tca per benchmark (dm = baseline, bc = B-Cache MF8/BAS8)",
		Note:  "a set is frequent when 2x over the per-set average; less-accessed when below half of it (§6.4)",
		Headers: []string{
			"benchmark", "cfg", "fhs", "ch", "fms", "cm", "las", "tca",
		},
	}
	// Two cells per benchmark, the baseline then the B-Cache, both
	// replaying the benchmark's data stream.
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("table7/%s/%s", all[i/2].Name, dmBC[i%2]) },
		Group: func(i int) int { return i / 2 },
	}
	cells, err := runCells(opts, 2*len(all), uo, func(i int) (stats.Balance, error) {
		at, err := cachedData(opts, all[i/2])
		if err != nil {
			return stats.Balance{}, err
		}
		c, err := l1Cache(opts, i%2 == 1)
		if err != nil {
			return stats.Balance{}, err
		}
		replayData(at.accs, c)
		return stats.Analyze(c.Stats())
	})
	if err != nil {
		return nil, err
	}

	var sumDM, sumBC stats.Balance
	for pi, p := range all {
		dm, bc := cells[2*pi], cells[2*pi+1]
		addBalance(&sumDM, dm)
		addBalance(&sumBC, bc)
		t.AddRow(p.Name, "dm", pct(dm.FreqHitSets), pct(dm.HitsInFreqSets),
			pct(dm.FreqMissSets), pct(dm.MissesInFreqSets),
			pct(dm.LessAccessedSets), pct(dm.AccessesInLessSets))
		t.AddRow("", "bc", pct(bc.FreqHitSets), pct(bc.HitsInFreqSets),
			pct(bc.FreqMissSets), pct(bc.MissesInFreqSets),
			pct(bc.LessAccessedSets), pct(bc.AccessesInLessSets))
	}
	n := float64(len(all))
	scaleBalance(&sumDM, 1/n)
	scaleBalance(&sumBC, 1/n)
	t.AddRow("Ave", "dm", pct(sumDM.FreqHitSets), pct(sumDM.HitsInFreqSets),
		pct(sumDM.FreqMissSets), pct(sumDM.MissesInFreqSets),
		pct(sumDM.LessAccessedSets), pct(sumDM.AccessesInLessSets))
	t.AddRow("", "bc", pct(sumBC.FreqHitSets), pct(sumBC.HitsInFreqSets),
		pct(sumBC.FreqMissSets), pct(sumBC.MissesInFreqSets),
		pct(sumBC.LessAccessedSets), pct(sumBC.AccessesInLessSets))
	return []*Table{t}, nil
}

func addBalance(dst *stats.Balance, s stats.Balance) {
	dst.FreqHitSets += s.FreqHitSets
	dst.HitsInFreqSets += s.HitsInFreqSets
	dst.FreqMissSets += s.FreqMissSets
	dst.MissesInFreqSets += s.MissesInFreqSets
	dst.LessAccessedSets += s.LessAccessedSets
	dst.AccessesInLessSets += s.AccessesInLessSets
}

func scaleBalance(dst *stats.Balance, f float64) {
	dst.FreqHitSets *= f
	dst.HitsInFreqSets *= f
	dst.FreqMissSets *= f
	dst.MissesInFreqSets *= f
	dst.LessAccessedSets *= f
	dst.AccessesInLessSets *= f
}
