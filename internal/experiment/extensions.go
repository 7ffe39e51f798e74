package experiment

import (
	"fmt"

	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/cpu"
	"bcache/internal/energy"
	"bcache/internal/hier"
	"bcache/internal/rng"
	"bcache/internal/stats"
	"bcache/internal/threec"
	"bcache/internal/trace"
	"bcache/internal/vm"
	"bcache/internal/workload"
)

// Extension experiments beyond the paper's artifacts: the §7 related-work
// designs measured head-to-head (xrelated), the §6.8 virtual-addressing
// demonstration (xvipt), the §7.1 OS page-recoloring alternative
// (xrecolor), and the §6.4 drowsy-compatibility analysis (xdrowsy).

func init() {
	register(Experiment{
		ID:     "xrelated",
		Title:  "Related-work comparison: miss-rate reduction and hit latency per design (§7)",
		Run:    runXRelated,
		Sweeps: xRelatedSweeps,
	})
	register(Experiment{
		ID:    "xvipt",
		Title: "Virtually-indexed physically-tagged B-Cache with and without page coloring (§6.8)",
		Run:   runXVIPT,
	})
	register(Experiment{
		ID:    "xrecolor",
		Title: "OS page recoloring (CML) vs the B-Cache on conflict-bound benchmarks (§7.1)",
		Run:   runXRecolor,
	})
	register(Experiment{
		ID:    "xdrowsy",
		Title: "Drowsy-eligible frame fraction: baseline vs B-Cache (§6.4)",
		Run:   runXDrowsy,
	})
}

// relatedSpecs returns every alternative design under comparison.
func relatedSpecs() []Spec {
	return []Spec{
		setAssocSpec(2, 0),
		setAssocSpec(4, 0),
		setAssocSpec(8, 0),
		{Name: "column", Key: "column", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewColumn(size, line)
		}},
		{Name: "skewed2", Key: "skewed2:seed1", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewSkewed(size, line, rng.New(1))
		}},
		{Name: "psa", Key: "psa:10", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewPSA(size, line, 10)
		}},
		{Name: "agac", Key: "agac:32:4096", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewAGAC(size, line, 32, 4096)
		}},
		{Name: "pam4", Key: "pam:4:5", New: func(size, line int) (cache.Cache, error) {
			return altcache.NewPAM(size, line, 4, 5)
		}},
		victimSpec(16),
		hacSpec(),
		bcacheSpec(8, 8, cache.LRU),
	}
}

// xRelatedSweeps: every benchmark's D$ against each related design,
// canonical seed only. dm, 2/4/8-way, victim16 and MF8 are Figure 4's
// units, served from the result store when fig4 has run.
func xRelatedSweeps(opts Opts) []sweep {
	o := opts
	o.Seeds = 1
	return []sweep{{o, workload.All(), relatedSpecs(), dSide}}
}

func runXRelated(opts Opts) ([]*Table, error) {
	sw := xRelatedSweeps(opts)[0]
	res, err := missRates(sw.opts, sw.profiles, sw.specs, sw.side)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xrelated",
		Title: "Related-work designs on the full suite (D$, 16kB): reduction vs baseline and mean hit latency",
		Note:  "hit latency in cycles assuming 1-cycle primary probes; the B-Cache's defining property is 1.000",
		Headers: []string{
			"design", "miss-reduction", "mean-hit-latency",
		},
	}
	for _, s := range sw.specs {
		var baseMisses, misses, hits, extra uint64
		for _, p := range sw.profiles {
			r := res[p.Name][s.Name]
			baseMisses += res[p.Name]["baseline"].misses
			misses += r.misses
			hits += r.accesses - r.misses
			extra += r.extra
		}
		red := 0.0
		if baseMisses > 0 {
			red = 1 - float64(misses)/float64(baseMisses)
		}
		lat := 1.0
		if hits > 0 {
			lat = 1 + float64(extra)/float64(hits)
		}
		t.AddRow(s.Name, pct(red), fmt.Sprintf("%.3f", lat))
	}
	return []*Table{t}, nil
}

// l1Cache builds the level-one cache the dm-vs-B-Cache experiments compare:
// the direct-mapped baseline, or the paper's B-Cache (MF=8, BAS=8).
func l1Cache(opts Opts, bcache bool) (cache.Cache, error) {
	if bcache {
		return core.New(paperBCacheConfig(opts))
	}
	return cache.NewDirectMapped(opts.L1Size, opts.LineBytes)
}

// dmBC names the two L1s of l1Cache, indexed by its bcache flag.
var dmBC = [2]string{"dm", "bc"}

func runXVIPT(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const pageBytes = 8192
	t := &Table{
		ID:    "xvipt",
		Title: "B-Cache under virtual addressing (8kB pages, 64-entry TLB)",
		Note:  "coloring preserves the PD's borrowed tag bits; the physical column is the PIPT reference",
		Headers: []string{
			"benchmark", "physical", "vipt-colored", "vipt-arbitrary", "tlb-miss",
		},
	}
	profiles := namedProfiles("equake", "crafty", "gcc", "mcf")
	// Three cells per benchmark: the PIPT reference, then VIPT over a
	// colored and over an arbitrary allocator. Each cell builds its own
	// address space; frames are allocated on first touch from a seeded
	// source, so the reference and the colored VIPT run map every page
	// to the same frame.
	modes := []string{"physical", "vipt-colored", "vipt-arbitrary"}
	type viptCell struct{ missRate, tlbMiss float64 }
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("xvipt/%s/%s", profiles[i/3].Name, modes[i%3]) },
		Group: func(i int) int { return i / 3 },
	}
	cells, err := runCells(opts, 3*len(profiles), uo, func(i int) (viptCell, error) {
		at, err := cachedData(opts, profiles[i/3])
		if err != nil {
			return viptCell{}, err
		}
		cfg := vm.Config{PageBytes: pageBytes, ColorBits: 4, Policy: vm.Colored, Seed: 1}
		if i%3 == 2 {
			cfg = vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 1}
		}
		as, err := vm.NewAddressSpace(cfg)
		if err != nil {
			return viptCell{}, err
		}
		bc, err := l1Cache(opts, true)
		if err != nil {
			return viptCell{}, err
		}
		if i%3 == 0 {
			for _, m := range at.accs {
				bc.Access(as.Translate(m.Addr()), m.Write())
			}
			return viptCell{missRate: bc.Stats().MissRate()}, nil
		}
		tlb, err := vm.NewTLB(64)
		if err != nil {
			return viptCell{}, err
		}
		vipt, err := vm.NewVIPT(bc, as, tlb, 17)
		if err != nil {
			return viptCell{}, err
		}
		for _, m := range at.accs {
			vipt.Access(m.Addr(), m.Write())
		}
		return viptCell{bc.Stats().MissRate(), float64(tlb.Misses) / float64(tlb.Hits+tlb.Misses)}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		c := cells[3*pi:]
		t.AddRow(p.Name, pct(c[0].missRate), pct(c[1].missRate), pct(c[2].missRate), pct(c[1].tlbMiss))
	}
	return []*Table{t}, nil
}

func runXRecolor(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const pageBytes = 4096
	t := &Table{
		ID:    "xrecolor",
		Title: "OS page recoloring (CML buffer) vs hardware approaches (D$ miss rate)",
		Note:  "recoloring approaches 2-way behaviour (§7.1); the B-Cache reaches 4-way+ in hardware",
		Headers: []string{
			"benchmark", "dm", "dm+recolor", "remaps", "2way", "bcache",
		},
	}
	profiles := namedProfiles("equake", "crafty", "twolf", "gcc")
	// Four cells per benchmark, each on physical addresses from its own
	// identically seeded arbitrary allocator, so every cell starts from
	// the same placements; only dm+recolor moves pages.
	modes := []string{"dm", "dm+recolor", "2way", "bcache"}
	type recolorCell struct {
		missRate float64
		remaps   uint64
	}
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("xrecolor/%s/%s", profiles[i/4].Name, modes[i%4]) },
		Group: func(i int) int { return i / 4 },
	}
	cells, err := runCells(opts, 4*len(profiles), uo, func(i int) (recolorCell, error) {
		at, err := cachedData(opts, profiles[i/4])
		if err != nil {
			return recolorCell{}, err
		}
		as, err := vm.NewAddressSpace(vm.Config{PageBytes: pageBytes, Policy: vm.Arbitrary, Seed: 2})
		if err != nil {
			return recolorCell{}, err
		}
		var c cache.Cache
		switch modes[i%4] {
		case "2way":
			c, err = cache.NewSetAssoc(opts.L1Size, opts.LineBytes, 2, cache.LRU, nil)
		default:
			c, err = l1Cache(opts, modes[i%4] == "bcache")
		}
		if err != nil {
			return recolorCell{}, err
		}
		if modes[i%4] != "dm+recolor" {
			for _, m := range at.accs {
				c.Access(as.Translate(m.Addr()), m.Write())
			}
			return recolorCell{missRate: c.Stats().MissRate()}, nil
		}
		rc, err := vm.NewRecolorer(as, opts.L1Size, 24)
		if err != nil {
			return recolorCell{}, err
		}
		for _, m := range at.accs {
			pa := as.Translate(m.Addr())
			rc.Note(m.Addr(), pa)
			if !c.Access(pa, m.Write()).Hit {
				rc.OnMiss(pa)
			}
		}
		return recolorCell{c.Stats().MissRate(), rc.Remaps}, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		c := cells[4*pi:]
		t.AddRow(p.Name, pct(c[0].missRate), pct(c[1].missRate), fmt.Sprintf("%d", c[1].remaps),
			pct(c[2].missRate), pct(c[3].missRate))
	}
	return []*Table{t}, nil
}

func runXDrowsy(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	const window = 2048
	t := &Table{
		ID:    "xdrowsy",
		Title: "Drowsy-eligible frame fraction (window 2048 accesses): baseline vs B-Cache",
		Note:  "§6.4: the B-Cache balances accesses yet leaves cold frames for drowsy/decay techniques",
		Headers: []string{
			"benchmark", "dm-drowsy", "bc-drowsy", "dm-static-factor", "bc-static-factor",
		},
	}
	profiles := namedProfiles("equake", "crafty", "art", "mcf", "gcc")
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("xdrowsy/%s/%s", profiles[i/2].Name, dmBC[i%2]) },
		Group: func(i int) int { return i / 2 },
	}
	fracs, err := runCells(opts, 2*len(profiles), uo, func(i int) (float64, error) {
		at, err := cachedData(opts, profiles[i/2])
		if err != nil {
			return 0, err
		}
		c, err := l1Cache(opts, i%2 == 1)
		if err != nil {
			return 0, err
		}
		d, err := stats.NewDrowsyTracker(c.Geometry().Frames, window)
		if err != nil {
			return 0, err
		}
		for _, m := range at.accs {
			r := c.Access(m.Addr(), m.Write())
			d.Touch(r.Frame)
		}
		return d.DrowsyFraction(), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		fDM, fBC := fracs[2*pi], fracs[2*pi+1]
		t.AddRow(p.Name, pct(fDM), pct(fBC),
			f3(energy.DrowsyStaticFactor(fDM)), f3(energy.DrowsyStaticFactor(fBC)))
	}
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:    "x3c",
		Title: "3C miss decomposition (D$): the B-Cache removes conflict misses only",
		Run:   runX3C,
	})
}

func runX3C(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "x3c",
		Title: "Compulsory/capacity/conflict decomposition of D$ misses (% of accesses)",
		Note:  "the B-Cache (MF8/BAS8) attacks the conflict column; compulsory and capacity are indexing-independent",
		Headers: []string{
			"benchmark", "cfg", "compulsory", "capacity", "conflict", "total-miss",
		},
	}
	profiles := namedProfiles("equake", "crafty", "gcc", "art", "mcf", "wupwise")
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("x3c/%s/%s", profiles[i/2].Name, dmBC[i%2]) },
		Group: func(i int) int { return i / 2 },
	}
	counts, err := runCells(opts, 2*len(profiles), uo, func(i int) (threec.Counts, error) {
		return threeC(opts, profiles[i/2], i%2 == 1)
	})
	if err != nil {
		return nil, err
	}
	for i, c := range counts {
		name := ""
		if i%2 == 0 {
			name = profiles[i/2].Name // only label the first row of the pair
		}
		n := float64(c.Accesses())
		t.AddRow(name, dmBC[i%2],
			pct(float64(c.Compulsory)/n),
			pct(float64(c.Capacity)/n),
			pct(float64(c.Conflict)/n),
			pct(float64(c.Misses())/n))
	}
	return []*Table{t}, nil
}

// threeC classifies every D$ miss of p under the baseline or the
// B-Cache as compulsory, capacity or conflict.
func threeC(opts Opts, p *workload.Profile, bcache bool) (threec.Counts, error) {
	at, err := cachedData(opts, p)
	if err != nil {
		return threec.Counts{}, err
	}
	c, err := l1Cache(opts, bcache)
	if err != nil {
		return threec.Counts{}, err
	}
	cl, err := threec.New(c)
	if err != nil {
		return threec.Counts{}, err
	}
	for _, m := range at.accs {
		cl.Access(m.Addr(), m.Write())
	}
	return cl.Counts(), nil
}

// runIPC simulates rt on the processor cc with both L1s built by
// l1Cache and the unified L2 l2 (nil = hc's conventional one).
func runIPC(opts Opts, rt *recordTrace, bcache bool, l2 cache.Cache, hc hier.Config, cc cpu.Config) (cpu.Result, *hier.Hierarchy, error) {
	ic, err := l1Cache(opts, bcache)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	dc, err := l1Cache(opts, bcache)
	if err != nil {
		return cpu.Result{}, nil, err
	}
	var h *hier.Hierarchy
	if l2 == nil {
		h, err = hier.New(ic, dc, hc)
	} else {
		h, err = hier.NewWithL2(ic, dc, l2, hc)
	}
	if err != nil {
		return cpu.Result{}, nil, err
	}
	res, err := cpu.Run(trace.NewSliceStream(rt.recs), h, cc, opts.Instructions)
	return res, h, err
}

func init() {
	register(Experiment{
		ID:    "xprefetch",
		Title: "Stream-buffer prefetching is orthogonal to B-Cache balancing (IPC)",
		Run:   runXPrefetch,
	})
}

// runXPrefetch contrasts the two miss-reduction mechanisms of the era:
// a stream buffer attacks sequential (capacity/compulsory) misses, the
// B-Cache attacks conflict misses. On streaming benchmarks the buffer
// wins; on conflict-bound ones the B-Cache wins; together they compose.
func runXPrefetch(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xprefetch",
		Title: "IPC with and without an 8-entry data stream buffer",
		Note:  "dm = direct-mapped baseline, bc = B-Cache MF8/BAS8; +sb adds the stream buffer",
		Headers: []string{
			"benchmark", "dm", "dm+sb", "bc", "bc+sb", "sb-hit-rate",
		},
	}
	profiles := namedProfiles("art", "swim", "equake", "crafty", "mcf")
	// Four cells per benchmark: dm, dm+sb, bc, bc+sb (bit 1 = B-Cache,
	// bit 0 = stream buffer), all replaying the benchmark's record trace.
	modes := []string{"dm", "dm+sb", "bc", "bc+sb"}
	type prefetchCell struct{ ipc, sbRate float64 }
	held := make([]heldTrace, len(profiles))
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("xprefetch/%s/%s", profiles[i/4].Name, modes[i%4]) },
		Group: func(i int) int { return i / 4 },
	}
	cells, err := runCells(opts, 4*len(profiles), uo, func(i int) (prefetchCell, error) {
		pi := i / 4
		defer held[pi].release(i, 4)
		rt, err := held[pi].get(opts, profiles[pi])
		if err != nil {
			return prefetchCell{}, err
		}
		hc := hier.Defaults()
		if i&1 != 0 {
			hc.StreamBuffer = 8
		}
		res, h, err := runIPC(opts, rt, i&2 != 0, nil, hc, cpu.Defaults())
		if err != nil {
			return prefetchCell{}, err
		}
		c := prefetchCell{ipc: res.IPC()}
		if h.Prefetches > 0 {
			c.sbRate = float64(h.StreamHits) / float64(h.Prefetches)
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		c := cells[4*pi:]
		t.AddRow(p.Name, f3(c[0].ipc), f3(c[1].ipc), f3(c[2].ipc), f3(c[3].ipc), pct(c[1].sbRate))
	}
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:    "xl2",
		Title: "The B-Cache mechanism applied at the L2 (misses per 1k instructions)",
		Run:   runXL2,
	})
}

// runXL2 swaps the unified 256kB L2 between direct-mapped, B-Cache
// (MF=8, BAS=8) and the paper's 4-way baseline: the balancing idea is
// not level-one specific.
func runXL2(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xl2",
		Title: "L2 organization sweep (16kB DM L1s in front): L2 miss rate",
		Note:  "an L2 B-Cache recovers most of the associativity a 4-way L2 provides, at direct-mapped access time",
		Headers: []string{
			"benchmark", "dm-l2", "bcache-l2", "4way-l2",
		},
	}
	cfg := hier.Defaults()
	l2s := []struct {
		name string
		mk   func() (cache.Cache, error)
	}{
		{"dm-l2", func() (cache.Cache, error) { return cache.NewDirectMapped(cfg.L2Size, cfg.L2Line) }},
		{"bcache-l2", func() (cache.Cache, error) {
			return core.New(core.Config{SizeBytes: cfg.L2Size, LineBytes: cfg.L2Line, MF: 8, BAS: 8, Policy: cache.LRU})
		}},
		{"4way-l2", func() (cache.Cache, error) {
			return cache.NewSetAssoc(cfg.L2Size, cfg.L2Line, cfg.L2Ways, cache.LRU, nil)
		}},
	}
	profiles := namedProfiles("mcf", "gcc", "equake", "ammp")
	held := make([]heldTrace, len(profiles))
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("xl2/%s/%s", profiles[i/3].Name, l2s[i%3].name) },
		Group: func(i int) int { return i / 3 },
	}
	rates, err := runCells(opts, 3*len(profiles), uo, func(i int) (float64, error) {
		pi := i / 3
		defer held[pi].release(i, 3)
		rt, err := held[pi].get(opts, profiles[pi])
		if err != nil {
			return 0, err
		}
		l2, err := l2s[i%3].mk()
		if err != nil {
			return 0, err
		}
		if _, _, err := runIPC(opts, rt, false, l2, cfg, cpu.Defaults()); err != nil {
			return 0, err
		}
		return l2.Stats().MissRate(), nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		r := rates[3*pi:]
		t.AddRow(p.Name, pct(r[0]), pct(r[1]), pct(r[2]))
	}
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:     "xline",
		Title:  "Line-size sensitivity: B-Cache reductions at 16/32/64-byte lines",
		Run:    runXLine,
		Sweeps: xLineSweeps,
	})
}

// xLineSpecs returns the three configurations runXLine compares.
func xLineSpecs() []Spec {
	return []Spec{
		setAssocSpec(4, energy.Way4),
		setAssocSpec(8, energy.Way8),
		bcacheSpec(8, 8, cache.LRU),
	}
}

// xLineSweeps: every benchmark's D$ at 16-, 32- and 64-byte lines.
func xLineSweeps(opts Opts) []sweep {
	var sweeps []sweep
	for _, line := range []int{16, 32, 64} {
		o := opts
		o.LineBytes = line
		sweeps = append(sweeps, sweep{o, workload.All(), xLineSpecs(), dSide})
	}
	return sweeps
}

// runXLine re-runs the Figure 4 averages with different line sizes: the
// paper evaluates only 32-byte lines, but the balancing mechanism should
// be insensitive to the line size (conflicts are a set-indexing property).
func runXLine(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xline",
		Title: "Average D$ miss-rate reduction vs line size (16kB)",
		Note:  "suite average over all 26 benchmarks; the B-Cache stays between 4- and 8-way at every line size",
		Headers: []string{
			"line", "4way", "8way", "MF8",
		},
	}
	for _, sw := range xLineSweeps(opts) {
		res, err := missRates(sw.opts, sw.profiles, sw.specs, sw.side)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dB", sw.opts.LineBytes), pct(sw.meanReduction(res, "4way")),
			pct(sw.meanReduction(res, "8way")), pct(sw.meanReduction(res, "MF8")))
	}
	return []*Table{t}, nil
}

func init() {
	register(Experiment{
		ID:    "xwindow",
		Title: "Instruction-window sensitivity: how much miss latency the window hides",
		Run:   runXWindow,
	})
}

// runXWindow sweeps the out-of-order window size on the baseline and the
// B-Cache. equake's misses sit on dependence chains, so even an 8x larger
// window hides almost none of their latency: the B-Cache's gain is flat
// across window sizes. Out-of-order execution is not a substitute for
// removing conflict misses — the observation that motivates the paper.
func runXWindow(opts Opts) ([]*Table, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "xwindow",
		Title: "equake IPC vs window size (baseline / B-Cache / B-Cache gain)",
		Note:  "dependent misses defeat latency hiding at every window size; only removing them (the B-Cache) helps",
		Headers: []string{
			"window", "dm-IPC", "bc-IPC", "bc-gain",
		},
	}
	p := namedProfiles("equake")[0]
	windows := []int{8, 16, 32, 64}
	// Two cells per window, dm then bc, all in one group replaying
	// equake's record trace.
	var held heldTrace
	uo := unitOpts{
		Label: func(i int) string { return fmt.Sprintf("xwindow/%d/%s", windows[i/2], dmBC[i%2]) },
		Group: func(int) int { return 0 },
	}
	ipcs, err := runCells(opts, 2*len(windows), uo, func(i int) (float64, error) {
		defer held.release(i, 2*len(windows))
		rt, err := held.get(opts, p)
		if err != nil {
			return 0, err
		}
		cc := cpu.Defaults()
		cc.Window = windows[i/2]
		res, _, err := runIPC(opts, rt, i%2 == 1, nil, hier.Defaults(), cc)
		if err != nil {
			return 0, err
		}
		return res.IPC(), nil
	})
	if err != nil {
		return nil, err
	}
	for wi, window := range windows {
		dm, bc := ipcs[2*wi], ipcs[2*wi+1]
		t.AddRow(fmt.Sprintf("%d", window), f3(dm), f3(bc), pct(bc/dm-1))
	}
	return []*Table{t}, nil
}
