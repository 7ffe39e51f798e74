package experiment

import (
	"fmt"

	"bcache/internal/workload"
)

// A Plan is the campaign's list of miss-rate work units: a single
// (profile, seed, spec) replay, or one (profile, seed) stack-distance
// pass answering every LRU spec at once. planMissRates is the only
// enumeration of these units. missRates runs the units it plans for one
// sweep in-process, and PlanCampaign collects the units of every sweep
// for the internal/dist coordinator to lease out to worker subprocesses.
// Either way a unit commits the same checkpoint records under the same
// keys, which is what makes the coordinator's merged checkpoint
// bit-identical to a single-process run: distribution changes where a
// unit runs, never what it computes.
//
// Planning is cheap (no traces are materialized) and deterministic: the
// same Opts and experiment IDs produce the same unit list in the same
// order on every machine, so a coordinator and its workers can agree on
// the unit space by index alone, cross-checked with Fingerprint.

// profileSpecName is the pseudo spec name keying a stack-distance
// profiling job in a plan. It never collides with a real Spec: every
// registered spec name is a concrete configuration like "8way" or "MF8".
const profileSpecName = "lru-profile"

// KeyedResult is one checkpoint record produced by a planned unit: the
// self-describing unit key plus the raw counters stored under it.
type KeyedResult struct {
	Key    string     `json:"key"`
	Result UnitResult `json:"result"`
}

// PlannedUnit is one miss-rate work unit.
type PlannedUnit struct {
	// Key names the unit: for replay units the checkpoint unit key, for
	// profiling units the same key shape under the lru-profile pseudo
	// spec.
	Key string
	// keys lists every checkpoint key the unit commits (one per covered
	// spec); run executes the unit.
	keys []string
	run  func() ([]KeyedResult, error)
	// group numbers the (profile, seed) trace the unit replays, unique
	// within one planMissRates call; label names the unit for telemetry
	// (built only when a hub is installed).
	group int
	label func() string
}

// Plan is an ordered, deduplicated list of planned units.
type Plan struct {
	units []PlannedUnit
}

// Len returns the number of planned units.
func (p *Plan) Len() int { return len(p.units) }

// Key returns the unit key of unit i.
func (p *Plan) Key(i int) string { return p.units[i].Key }

// UnitKeys returns the checkpoint keys unit i commits.
func (p *Plan) UnitKeys(i int) []string { return p.units[i].keys }

// Execute runs unit i and returns its checkpoint records.
func (p *Plan) Execute(i int) ([]KeyedResult, error) {
	return p.units[i].run()
}

// Fingerprint folds every unit key through FNV-1a so a coordinator and a
// worker built from different flags (or different binaries) cannot
// silently disagree about what unit i means.
func (p *Plan) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, u := range p.units {
		for i := 0; i < len(u.Key); i++ {
			h = (h ^ uint64(u.Key[i])) * prime
		}
		h = (h ^ 0xFF) * prime // key separator
	}
	return h
}

// Done reports whether every checkpoint key of unit i is already present
// in cp (a nil checkpoint marks nothing done).
func (p *Plan) Done(i int, cp *Checkpoint) bool {
	_, ok := p.units[i].stored(cp)
	return ok
}

// stored returns the unit's records from cp when every key it commits
// is there.
func (u *PlannedUnit) stored(cp *Checkpoint) ([]KeyedResult, bool) {
	out := make([]KeyedResult, len(u.keys))
	for x, k := range u.keys {
		r, ok := cp.Lookup(k)
		if !ok {
			return nil, false
		}
		out[x] = KeyedResult{Key: k, Result: r}
	}
	return out, true
}

// PlanCampaign enumerates the miss-rate units of the experiments named
// by ids (nil or empty = all registered experiments): every sweep of
// every experiment, in registry order, deduplicated by unit key.
// Experiments share units — the baseline column appears in every
// figure — and a shared unit is planned once, where it first appears.
// Experiments without sweeps (the analytic tables, the timed IPC runs)
// contribute nothing and simply run in-process after the merge.
func PlanCampaign(opts Opts, ids []string) (*Plan, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var exps []Experiment
	if len(ids) == 0 {
		exps = All()
	} else {
		for _, id := range ids {
			e, err := ByID(id)
			if err != nil {
				return nil, err
			}
			exps = append(exps, e)
		}
	}
	plan := &Plan{}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Sweeps == nil {
			continue
		}
		for _, sw := range e.Sweeps(opts) {
			for _, u := range planMissRates(sw.opts, sw.profiles, sw.specs, sw.side) {
				if !seen[u.Key] {
					seen[u.Key] = true
					plan.units = append(plan.units, u)
				}
			}
		}
	}
	return plan, nil
}

// A sweep is one miss-rate measurement an experiment declares: every
// profile against the baseline and each spec on one cache side, at the
// scale and geometry of opts. The experiment's Run function renders
// from missRates over its sweeps, and PlanCampaign plans the same
// sweeps, so the two cannot disagree about the unit space.
type sweep struct {
	opts     Opts
	profiles []*workload.Profile
	specs    []Spec
	side     side
}

// meanReduction averages spec name's miss-rate reduction over the
// sweep's profiles; res must hold every profile.
func (w sweep) meanReduction(res map[string]map[string]missRun, name string) float64 {
	var sum float64
	for _, p := range w.profiles {
		sum += reduction(res[p.Name]["baseline"], res[p.Name][name])
	}
	return sum / float64(len(w.profiles))
}

// planMissRates enumerates the units of one (profiles, specs, side)
// sweep: per (profile, seed), one profiling unit when any pure-LRU spec
// is profileable, then one replay unit per remaining spec.
func planMissRates(opts Opts, profiles []*workload.Profile, specs []Spec, s side) []PlannedUnit {
	all := append([]Spec{baselineSpec()}, specs...)
	seeds := opts.seeds()
	lru, replayed := lruSpecIndices(opts, all)
	var units []PlannedUnit
	for pi, p := range profiles {
		p := p
		for k := 0; k < seeds; k++ {
			k := k
			group := pi*seeds + k
			if len(lru) > 0 {
				keys := make([]string, len(lru))
				for x, si := range lru {
					keys[x] = unitKey(opts, s, all[si].key(), k, p.Name)
				}
				units = append(units, PlannedUnit{
					Key:  unitKey(opts, s, profileSpecName, k, p.Name),
					keys: keys,
					run: func() ([]KeyedResult, error) {
						res, err := execProfileUnit(opts, s, p, all, lru, k)
						if err != nil {
							return nil, err
						}
						out := make([]KeyedResult, len(res))
						for x := range res {
							out[x] = KeyedResult{Key: keys[x], Result: res[x]}
						}
						return out, nil
					},
					group: group,
					label: func() string { return fmt.Sprintf("%s/%s/seed%d", p.Name, profileSpecName, k) },
				})
			}
			for _, si := range replayed {
				spec := all[si]
				key := unitKey(opts, s, spec.key(), k, p.Name)
				units = append(units, PlannedUnit{
					Key:  key,
					keys: []string{key},
					run: func() ([]KeyedResult, error) {
						u, err := execReplayUnit(opts, s, p, spec, k)
						if err != nil {
							return nil, err
						}
						return []KeyedResult{{Key: key, Result: u}}, nil
					},
					group: group,
					label: func() string { return fmt.Sprintf("%s/%s/seed%d", p.Name, spec.Name, k) },
				})
			}
		}
	}
	return units
}

// reportedICacheProfiles returns the benchmarks Figure 5 reports.
func reportedICacheProfiles() []*workload.Profile {
	var reported []*workload.Profile
	for _, p := range workload.All() {
		if workload.IsReportedICache(p.Name) {
			reported = append(reported, p)
		}
	}
	return reported
}
