package experiment

import (
	"bcache/internal/cache"
	"bcache/internal/workload"
)

// Figure 3: the benchmark wupwise's data-cache miss rate and PD hit rate
// during misses as MF sweeps from 2 to 512 (BAS = 8, 16 kB). The paper's
// point: wupwise's conflicting blocks sit at a power-of-two stride whose
// low tag bits coincide, so the PD keeps hitting during misses — and the
// miss rate only falls once MF grows past the collision (between 32 and
// 64), tracking the PD hit rate downward.

func init() {
	register(Experiment{
		ID:     "fig3",
		Title:  "wupwise D$ miss rate and PD hit rate vs MF (BAS=8, 16kB)",
		Run:    runFig3,
		Sweeps: fig3Sweeps,
	})
}

// fig3Sweeps: wupwise's D$ at BAS=8 and MF 2..512, canonical seed only.
// MF2..MF16 are Figure 4's units, served from the result store when
// fig4 has run.
func fig3Sweeps(opts Opts) []sweep {
	o := opts
	o.Seeds = 1
	var specs []Spec
	for mf := 2; mf <= 512; mf *= 2 {
		specs = append(specs, bcacheSpec(mf, 8, cache.LRU))
	}
	return []sweep{{o, namedProfiles("wupwise"), specs, dSide}}
}

func runFig3(opts Opts) ([]*Table, error) {
	sw := fig3Sweeps(opts)[0]
	res, err := missRates(sw.opts, sw.profiles, sw.specs, sw.side)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3",
		Title:   "wupwise: D$ miss rate (left axis) and PD hit rate during misses (right axis) vs MF",
		Note:    "BAS=8, LRU; the sharp PD-hit-rate drop marks where MF exceeds the benchmark's tag-collision stride",
		Headers: []string{"MF", "miss-rate", "pd-hit-rate"},
	}
	row := res["wupwise"]
	for _, s := range sw.specs {
		r := row[s.Name]
		t.AddRow(s.Name, pct(r.missRate), pct(r.pdHitDuringMiss))
	}
	return []*Table{t}, nil
}

// namedProfiles returns the compiled-in benchmarks of the given names;
// an unknown name is a programming error.
func namedProfiles(names ...string) []*workload.Profile {
	out := make([]*workload.Profile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			panic(err)
		}
		out[i] = p
	}
	return out
}
