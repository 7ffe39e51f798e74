package experiment

import (
	"fmt"
	"runtime"
	"time"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/energy"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// Opts controls experiment scale. The paper runs 500 M instructions per
// benchmark after a 2 B fast-forward; the synthetic workloads reach
// steady state within thousands of instructions, so a few million
// instructions reproduce the same steady-state rates in seconds.
type Opts struct {
	// Instructions per benchmark per configuration.
	Instructions uint64
	// Workers bounds concurrent benchmark runs (0 = GOMAXPROCS).
	Workers int
	// L1Size and LineBytes shape the level-one caches under study.
	L1Size    int
	LineBytes int
	// Seeds replicates miss-rate runs with shifted workload seeds and
	// averages the results (noise control for small instruction counts).
	// Zero or one means a single run with the canonical seed.
	Seeds int
	// TraceBytes bounds the shared materialized-trace cache: 0 uses the
	// default budget, negative disables memoization.
	TraceBytes int64
	// Checkpoint, when non-nil, records every completed miss-rate work
	// unit and lets an interrupted run resume bit-identically: units
	// found in the checkpoint are not re-simulated. nil uses one
	// process-level in-memory store (see Opts.store).
	Checkpoint *Checkpoint
	// UnitTimeout abandons a single work unit running longer than this
	// (0 = no deadline); abandoned and ErrTransient units are retried
	// up to UnitRetries times with exponential backoff.
	UnitTimeout time.Duration
	UnitRetries int
	// DisableStackDist forces every pure-LRU baseline spec through its
	// own cache replay instead of the shared one-pass stack-distance
	// profile. The replay path is the differential oracle the profiler
	// is tested against; results are bit-identical either way.
	DisableStackDist bool
}

// DefaultOpts returns the scale used for EXPERIMENTS.md.
func DefaultOpts() Opts {
	return Opts{
		Instructions: 2_000_000,
		Workers:      0,
		L1Size:       16 * 1024,
		LineBytes:    32,
	}
}

func (o Opts) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Opts) validate() error {
	if o.Instructions == 0 {
		return fmt.Errorf("experiment: zero instructions")
	}
	if o.L1Size <= 0 || o.LineBytes <= 0 {
		return fmt.Errorf("experiment: bad L1 shape %d/%d", o.L1Size, o.LineBytes)
	}
	if o.Seeds < 0 {
		return fmt.Errorf("experiment: negative seed count %d", o.Seeds)
	}
	return nil
}

func (o Opts) seeds() int {
	if o.Seeds < 1 {
		return 1
	}
	return o.Seeds
}

// seedShift spreads replica seeds away from the canonical one.
const seedShift = 1_000_003

// withSeed returns p with its seed shifted for replica k (k=0 is the
// canonical profile, untouched).
func withSeed(p *workload.Profile, k int) *workload.Profile {
	if k == 0 {
		return p
	}
	q := *p
	q.Regions = append([]workload.Region(nil), p.Regions...)
	q.Seed += uint64(k) * seedShift
	return &q
}

// memAcc is one data-cache access: the cache package's packed
// address-plus-direction word, 8 bytes per stream element.
type memAcc = cache.MemAccess

// Spec is a buildable L1 cache configuration.
type Spec struct {
	// Name appears as the table column, e.g. "8way" or "MF8".
	Name string
	// Key canonically identifies the cache CONFIGURATION, independent
	// of the display name an experiment picks. Two specs with equal
	// keys must build behaviourally identical caches: work-unit results
	// are shared across experiments under this key (see unitKey), so
	// table5's "mf8-bas8" column reuses fig4's "MF8" simulations.
	// Empty falls back to Name, which keeps experiment-local custom
	// specs correct as long as their names are unambiguous.
	Key string
	// Kind prices the configuration in the energy model.
	Kind energy.Kind
	// New builds the cache at the given geometry.
	New func(size, line int) (cache.Cache, error)
	// LRUWays, when positive, marks the spec as a plain LRU
	// set-associative cache of that associativity, whose hit/miss
	// counts the scheduler may derive from a shared stack-distance
	// profile instead of a dedicated replay (see missRates).
	LRUWays int
}

// key returns the canonical configuration identity for unit keys.
func (s Spec) key() string {
	if s.Key != "" {
		return s.Key
	}
	return s.Name
}

// baselineSpec is the paper's baseline: a direct-mapped cache.
func baselineSpec() Spec {
	return Spec{
		Name: "baseline",
		Key:  "dm",
		Kind: energy.DirectMapped,
		New: func(size, line int) (cache.Cache, error) {
			return cache.NewDirectMapped(size, line)
		},
		LRUWays: 1,
	}
}

func setAssocSpec(ways int, kind energy.Kind) Spec {
	return Spec{
		Name: fmt.Sprintf("%dway", ways),
		Key:  fmt.Sprintf("sa:%dway:lru", ways),
		Kind: kind,
		New: func(size, line int) (cache.Cache, error) {
			return cache.NewSetAssoc(size, line, ways, cache.LRU, rng.New(1))
		},
		LRUWays: ways,
	}
}

func victimSpec(entries int) Spec {
	return Spec{
		Name: fmt.Sprintf("victim%d", entries),
		Key:  fmt.Sprintf("victim:%d", entries),
		Kind: energy.VictimDM,
		New: func(size, line int) (cache.Cache, error) {
			return victim.New(size, line, entries)
		},
	}
}

func bcacheSpec(mf, bas int, pol cache.PolicyKind) Spec {
	name := fmt.Sprintf("MF%d", mf)
	if bas != 8 {
		name = fmt.Sprintf("MF%d/BAS%d", mf, bas)
	}
	return Spec{
		Name: name,
		Key:  fmt.Sprintf("bc:mf%d:bas%d:pol%d", mf, bas, pol),
		Kind: energy.BCache,
		New: func(size, line int) (cache.Cache, error) {
			return core.New(core.Config{
				SizeBytes: size, LineBytes: line, MF: mf, BAS: bas, Policy: pol,
			})
		},
	}
}

func hacSpec() Spec {
	return Spec{
		Name: "hac32",
		Key:  "hac:32",
		Kind: energy.HAC,
		New: func(size, line int) (cache.Cache, error) {
			return altcache.NewHAC(size, line)
		},
	}
}

// figureSpecs returns the nine configurations of Figures 4 and 5:
// 2/4/8/32-way, a 16-entry victim buffer, and the B-Cache at MF 2..16
// with BAS = 8 (LRU throughout, as the figure captions state).
func figureSpecs() []Spec {
	return []Spec{
		setAssocSpec(2, energy.Way2),
		setAssocSpec(4, energy.Way4),
		setAssocSpec(8, energy.Way8),
		setAssocSpec(32, energy.Way32),
		victimSpec(16),
		bcacheSpec(2, 8, cache.LRU),
		bcacheSpec(4, 8, cache.LRU),
		bcacheSpec(8, 8, cache.LRU),
		bcacheSpec(16, 8, cache.LRU),
	}
}

// side selects which L1 a miss-rate experiment drives.
type side int

const (
	dSide side = iota
	iSide
)

// replayData drives a data stream through c sequentially.
func replayData(data []memAcc, c cache.Cache) {
	for _, m := range data {
		c.Access(m.Addr(), m.Write())
	}
}

// replayFetch drives a fetch stream through c sequentially.
func replayFetch(fetch []addr.Addr, c cache.Cache) {
	for _, pc := range fetch {
		c.Access(pc, false)
	}
}

// missRun is the result of one (benchmark, spec) miss-rate run,
// aggregated over seeds as raw event counts.
type missRun struct {
	missRate float64
	misses   uint64
	accesses uint64
	// pdHit/pdMiss are the PD lookup outcomes during cache misses,
	// summed across seeds (B-Cache only).
	pdHit  uint64
	pdMiss uint64
	// pdHitDuringMiss is pdHit/(pdHit+pdMiss): the PD hit rate during
	// misses, computed once from the summed counters so seeds with
	// unequal miss counts carry their true weight.
	pdHitDuringMiss float64
	// extra is the hit latency beyond one cycle, summed over hits and
	// seeds (UnitResult.Extra).
	extra uint64
}

// unitKey names one (side, scale, spec, seed, profile) work unit in the
// result store. The key is self-describing — it embeds everything the
// stored counters depend on — so a checkpoint written at one scale can
// never poison a resume at another. specKey is the spec's canonical
// configuration key (Spec.key), not its display name, so experiments
// that render the same configuration under different column names share
// one simulation. v2: specs are keyed canonically (v1 used display
// names). v3: results carry Extra, so a v2 record, which lacks it, can
// never serve a unit.
func unitKey(opts Opts, s side, specKey string, seedIdx int, profile string) string {
	return fmt.Sprintf("v3|side=%d|n=%d|size=%d|line=%d|spec=%s|seed=%d|prof=%s",
		s, opts.Instructions, opts.L1Size, opts.LineBytes, specKey, seedIdx, profile)
}

// memStore is the result store of runs without a checkpoint. fig4,
// fig12, table5/6 and xline overlap heavily in (configuration, profile,
// scale) space, and a unit's counters are a pure function of its
// unitKey, so one process-level store lets every experiment reuse the
// units an earlier one simulated.
var memStore = NewCheckpoint("")

// store returns the result store missRates reads and commits to:
// opts.Checkpoint when set, else the process-level memStore.
func (o Opts) store() *Checkpoint {
	if o.Checkpoint != nil {
		return o.Checkpoint
	}
	return memStore
}

// ResetUnitMemo drops every unit result of checkpoint-less runs (test
// hook and perfbench cold-start).
func ResetUnitMemo() { memStore.clear() }

// profileLRU answers every spec in lru (indices into all, each with
// LRUWays set) for one materialized trace side with a single Mattson
// stack-distance pass: under LRU's inclusion property an access hits a
// (sets, ways) cache iff its per-set reuse distance is below ways, so
// one profile yields the same hit/miss counts a per-spec replay would —
// bit-identically — at a fraction of the work. feed replays the chosen
// side's stream into the profile, one Access per element.
func profileLRU(feed func(*stackdist.Profile), opts Opts, all []Spec, lru []int) ([]UnitResult, error) {
	frames := opts.L1Size / opts.LineBytes
	geoms := make([]stackdist.Geom, len(lru))
	for x, si := range lru {
		w := all[si].LRUWays
		geoms[x] = stackdist.Geom{Sets: frames / w, Ways: w}
	}
	prof, err := stackdist.NewProfile(opts.LineBytes, geoms)
	if err != nil {
		return nil, err
	}
	feed(prof)
	out := make([]UnitResult, len(lru))
	for x, g := range geoms {
		misses, err := prof.Misses(g.Sets, g.Ways)
		if err != nil {
			return nil, err
		}
		// An LRU set-associative hit costs no extra latency: Extra is 0.
		out[x] = UnitResult{Misses: misses, Accesses: prof.Accesses()}
	}
	return out, nil
}

// extraLatencySummer is implemented by the engines some of whose hits
// cost cycles beyond the base hit time (victim buffer, column-
// associative, PSA, AGAC, PAM): ExtraLatencySum is Result.ExtraLatency
// summed over every access so far. Every other engine reports 0 on
// every access. Replay units read the total from the engine because
// reading ExtraLatency off every Result spills the six-field struct on
// each access, which slowed the B-Cache replay loop by about a fifth.
type extraLatencySummer interface {
	ExtraLatencySum() uint64
}

// execReplayUnit runs one (profile, seed, spec) replay: materialize (or
// fetch) the trace, build the cache, replay the side, and return the raw
// counters, including the extra hit latency summed over hits. Every
// planned replay unit runs through it, in-process (missRates) or in a
// worker subprocess (Plan.Execute), so both compute bit-identical
// counters.
func execReplayUnit(opts Opts, s side, p *workload.Profile, spec Spec, k int) (UnitResult, error) {
	c, err := spec.New(opts.L1Size, opts.LineBytes)
	if err != nil {
		return UnitResult{}, fmt.Errorf("%s/%s: %w", p.Name, spec.Name, err)
	}
	// Fetch only the stream this side replays: a D-side unit never
	// forces an I-side extraction, and vice versa.
	switch s {
	case dSide:
		dt, err := cachedData(opts, withSeed(p, k))
		if err != nil {
			return UnitResult{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		replayData(dt.accs, c)
	case iSide:
		ft, err := cachedFetch(opts, withSeed(p, k))
		if err != nil {
			return UnitResult{}, fmt.Errorf("%s: %w", p.Name, err)
		}
		replayFetch(ft.pcs, c)
	}
	st := c.Stats()
	u := UnitResult{Misses: st.Misses, Accesses: st.Accesses}
	if bc, ok := c.(*core.BCache); ok {
		pd := bc.PDStats()
		u.PDHit, u.PDMiss = pd.MissPDHit, pd.MissPDMiss
	}
	if x, ok := c.(extraLatencySummer); ok {
		u.Extra = x.ExtraLatencySum()
	}
	return u, nil
}

// execProfileUnit runs one (profile, seed) stack-distance pass answering
// every LRU spec in lru (indices into all) at once: the execution path
// of every planned profiling unit, like execReplayUnit for replays.
func execProfileUnit(opts Opts, s side, p *workload.Profile, all []Spec, lru []int, k int) ([]UnitResult, error) {
	var feed func(*stackdist.Profile)
	switch s {
	case dSide:
		dt, err := cachedData(opts, withSeed(p, k))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		feed = func(prof *stackdist.Profile) {
			for _, m := range dt.accs {
				prof.Access(m.Addr())
			}
		}
	case iSide:
		ft, err := cachedFetch(opts, withSeed(p, k))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		feed = func(prof *stackdist.Profile) {
			for _, pc := range ft.pcs {
				prof.Access(pc)
			}
		}
	}
	res, err := profileLRU(feed, opts, all, lru)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return res, nil
}

// lruSpecIndices partitions all into stack-distance-profileable specs
// (pure LRU set-associative shapes valid at the run's geometry) and the
// rest, which replay individually.
func lruSpecIndices(opts Opts, all []Spec) (lru, replayed []int) {
	frames := opts.L1Size / opts.LineBytes
	for si, sp := range all {
		if !opts.DisableStackDist && sp.LRUWays > 0 && sp.LRUWays <= frames {
			lru = append(lru, si)
		} else {
			replayed = append(replayed, si)
		}
	}
	return lru, replayed
}

// missRates runs all profiles × (baseline + specs) on one cache side and
// returns results[profile][specName] plus the baseline under "baseline".
//
// The units are planMissRates's. Pure-LRU set-associative specs
// (Spec.LRUWays > 0) are not replayed one cache at a time: each
// (profile, seed) trace feeds one profiling unit whose single
// stack-distance pass answers all of them at once (profileLRU). Every
// other spec — B-Cache, victim, random/FIFO, the related-work designs —
// replays as its own (profile, seed, spec) unit, and
// Opts.DisableStackDist forces the LRU specs down that replay path too,
// which is the differential oracle the profiler is tested against.
//
// A unit whose keys are all in the result store (Opts.store) is
// restored instead of re-simulated, bit-identically: the store holds
// the raw counters, and profiled counts equal replayed counts. A
// simulated unit is recorded there as it commits. Failed or interrupted
// units do not void the run: the returned map holds every profile whose
// units all completed, alongside the joined error, so callers can
// render partial results.
func missRates(opts Opts, profiles []*workload.Profile, specs []Spec, s side) (map[string]map[string]missRun, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	units := planMissRates(opts, profiles, specs, s)
	store := opts.store()
	tel := CurrentTelemetry()
	// One slot per unit, written only by that unit's commit closure on
	// the worker goroutine; reduced below.
	done := make([][]KeyedResult, len(units))
	uo := unitOpts{
		Timeout: opts.UnitTimeout,
		Retries: opts.UnitRetries,
		Label:   func(i int) string { return units[i].label() },
		// Every unit of one (profile, seed) replays the same trace.
		Group: func(i int) int { return units[i].group },
	}
	err := runUnitsCtl(len(units), opts.workers(), uo, func(i int) (func(), error) {
		if res, ok := units[i].stored(store); ok {
			return func() { done[i] = res }, nil
		}
		res, err := units[i].run()
		if err != nil {
			return nil, err
		}
		return func() {
			for _, r := range res {
				store.Record(r.Key, r.Result)
			}
			// One unit replays the trace once, however many specs it
			// answers.
			tel.addAccesses(res[0].Result.Accesses)
			done[i] = res
		}, nil
	})

	byKey := make(map[string]UnitResult)
	for _, res := range done {
		for _, r := range res {
			byKey[r.Key] = r.Result
		}
	}
	all := append([]Spec{baselineSpec()}, specs...)
	results := make(map[string]map[string]missRun, len(profiles))
	for _, p := range profiles {
		row := make(map[string]missRun, len(all))
		complete := true
		for _, spec := range all {
			var r missRun
			for k := 0; k < opts.seeds(); k++ {
				u, ok := byKey[unitKey(opts, s, spec.key(), k, p.Name)]
				if !ok {
					complete = false
					break
				}
				r.misses += u.Misses
				r.accesses += u.Accesses
				r.pdHit += u.PDHit
				r.pdMiss += u.PDMiss
				r.extra += u.Extra
			}
			if r.accesses > 0 {
				r.missRate = float64(r.misses) / float64(r.accesses)
			}
			if pd := r.pdHit + r.pdMiss; pd > 0 {
				r.pdHitDuringMiss = float64(r.pdHit) / float64(pd)
			}
			row[spec.Name] = r
		}
		if complete {
			results[p.Name] = row
		}
	}
	return results, err
}

// reduction converts a (baseline, config) miss pair into the paper's
// "% reduction in miss rate over baseline".
func reduction(baseline, config missRun) float64 {
	if baseline.misses == 0 {
		return 0
	}
	return 1 - float64(config.misses)/float64(baseline.misses)
}
