package experiment

import (
	"fmt"

	"bcache/internal/core"
	"bcache/internal/fault"
)

// The fault campaign measures what the paper's evaluation never had to:
// the B-Cache concentrates its mechanism in mutable decoder state, so a
// soft error there is qualitatively worse than one in a conventional
// cache's metadata. This experiment sweeps injection rate × protection
// model across MF×BAS design points and reports miss-rate inflation,
// fault classification, scrubber activity, and whether any configuration
// ended a run degraded or — the one outcome the robustness layer
// forbids — with a silently broken invariant.

func init() {
	register(Experiment{
		ID:    "fault",
		Title: "Soft-error campaign: miss rate and corruption vs injection rate across MF×BAS",
		Run:   runFaultCampaign,
	})
}

// faultGeometries are the MF×BAS design points under test: the paper's
// design (8,8), a low-MF point, a BAS=4 point (scalar-relevant PD
// shape), and the largest PD of Figure 4.
var faultGeometries = []struct{ mf, bas int }{
	{2, 8}, {8, 8}, {8, 4}, {16, 8},
}

// faultRates are the per-access injection probabilities swept; 0 is the
// fault-free reference each geometry's miss inflation is measured
// against.
var faultRates = []float64{0, 1e-5, 1e-4, 1e-3}

// campaignSeed derives the deterministic injection seed of one
// (row, profile) cell; the golden-ratio multiplier keeps streams apart.
func campaignSeed(row, profile int) uint64 {
	return 0x9E3779B97F4A7C15*uint64(row+1) + uint64(profile+1)
}

// faultCell aggregates one campaign row across its profiles.
type faultCell struct {
	misses, accesses uint64
	counts           fault.Counts
	scrub            core.ScrubReport
	passes           uint64
	degraded         int
	// invariant holds the first end-of-run invariant violation ("" =
	// every run ended clean or explicitly degraded).
	invariant string
}

func runFaultCampaign(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	// A conflict-heavy trio, so decoder damage shows up in the miss rate.
	profiles := namedProfiles("equake", "crafty", "gcc")

	type rowCfg struct {
		mf, bas int
		rate    float64
		prot    fault.Protection
	}
	var rows []rowCfg
	for _, g := range faultGeometries {
		for _, rate := range faultRates {
			if rate == 0 {
				// The fault-free reference needs no protection sweep.
				rows = append(rows, rowCfg{g.mf, g.bas, 0, fault.None})
				continue
			}
			for _, prot := range []fault.Protection{fault.None, fault.Parity, fault.SECDED} {
				rows = append(rows, rowCfg{g.mf, g.bas, rate, prot})
			}
		}
	}

	uo := unitOpts{
		Label: func(i int) string {
			r := rows[i/len(profiles)]
			return fmt.Sprintf("fault/%s/MF%d-BAS%d-r%g-%s",
				profiles[i%len(profiles)].Name, r.mf, r.bas, r.rate, r.prot)
		},
		// Every row of one profile replays its data stream.
		Group: func(i int) int { return i % len(profiles) },
	}
	cells, err := runCells(opts, len(rows)*len(profiles), uo, func(i int) (faultCell, error) {
		r := rows[i/len(profiles)]
		pi := i % len(profiles)
		var cell faultCell
		at, err := cachedData(opts, profiles[pi])
		if err != nil {
			return cell, err
		}
		bc, err := core.New(core.Config{
			SizeBytes: opts.L1Size, LineBytes: opts.LineBytes,
			MF: r.mf, BAS: r.bas,
		})
		if err != nil {
			return cell, err
		}
		in, err := fault.Wrap(bc, fault.Config{
			Rate:       r.rate,
			Protection: r.prot,
			Seed:       campaignSeed(i/len(profiles), pi),
			ScrubEvery: 4096,
		})
		if err != nil {
			return cell, err
		}
		replayData(at.accs, in)
		invErr := in.FinalScrub()
		st := in.Stats()
		cell.misses, cell.accesses = st.Misses, st.Accesses
		cell.counts = in.Counts()
		cell.scrub, cell.passes = in.ScrubTotals()
		if in.Degraded() {
			cell.degraded = 1
		}
		if invErr != nil && !in.Degraded() {
			cell.invariant = invErr.Error()
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce across profiles and index the fault-free reference rates.
	agg := make([]faultCell, len(rows))
	for ri := range rows {
		a := &agg[ri]
		for pi := range profiles {
			c := cells[ri*len(profiles)+pi]
			a.misses += c.misses
			a.accesses += c.accesses
			a.counts.Injected += c.counts.Injected
			a.counts.Silent += c.counts.Silent
			a.counts.Detected += c.counts.Detected
			a.counts.Corrected += c.counts.Corrected
			a.scrub.Add(c.scrub)
			a.passes += c.passes
			a.degraded += c.degraded
			if a.invariant == "" {
				a.invariant = c.invariant
			}
		}
	}
	ref := map[[2]int]float64{}
	for ri, r := range rows {
		if r.rate == 0 && agg[ri].accesses > 0 {
			ref[[2]int{r.mf, r.bas}] = float64(agg[ri].misses) / float64(agg[ri].accesses)
		}
	}

	t := &Table{
		ID:    "fault",
		Title: "Miss rate and fault outcomes vs per-access soft-error rate (D$, 3 benchmarks)",
		Note: fmt.Sprintf("deterministic injection, PD scrub every 4096 accesses, %d instructions",
			opts.Instructions),
		Headers: []string{"config", "protect", "rate", "miss", "Δmiss-pp",
			"injected", "silent", "detected", "corrected", "repairs", "degraded", "invariant"},
	}
	for ri, r := range rows {
		a := agg[ri]
		miss := 0.0
		if a.accesses > 0 {
			miss = float64(a.misses) / float64(a.accesses)
		}
		delta := 100 * (miss - ref[[2]int{r.mf, r.bas}])
		inv := "ok"
		if a.invariant != "" {
			inv = "VIOLATED"
		}
		t.AddRow(
			fmt.Sprintf("MF%d/BAS%d", r.mf, r.bas),
			r.prot.String(),
			fmt.Sprintf("%.0e", r.rate),
			pct(miss),
			fmt.Sprintf("%+.3f", delta),
			fmt.Sprintf("%d", a.counts.Injected),
			fmt.Sprintf("%d", a.counts.Silent),
			fmt.Sprintf("%d", a.counts.Detected),
			fmt.Sprintf("%d", a.counts.Corrected),
			fmt.Sprintf("%d", a.scrub.Repaired),
			fmt.Sprintf("%d/%d", a.degraded, len(profiles)),
			inv,
		)
	}
	return []*Table{t}, nil
}
