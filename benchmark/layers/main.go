// Command layers is the benchmark's per-layer replayer. It replays a
// benchmark workload's own SPEC2K-surrogate profiles through the public
// functions of each simulator layer — workload, trace, cache, core,
// victim, stackdist, altcache, hier and cpu — with one tracespan span
// around every call, and prints one JSON object holding the host cost
// per unit of work of each layer ("metrics") and what each layer
// simulated ("stats": misses, PD hits, victim hits, cycles). The stats
// are deterministic for a given -seed, so a speed-only change must leave
// them identical.
//
// Usage:
//
//	layers -workload missrate [-seed 0] [-merge program.jsonl]
//	       [-trace-out spans.jsonl] [-trace-chrome spans.trace.json]
//
// -merge folds the experiments binary's own span journal into this
// replayer's journal before export, so benchmark spans and the program's
// unit and trace-cache spans open in one Perfetto view.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"bcache/internal/addr"
	"bcache/internal/altcache"
	"bcache/internal/cache"
	"bcache/internal/core"
	"bcache/internal/cpu"
	"bcache/internal/hier"
	"bcache/internal/obs/tracespan"
	"bcache/internal/rng"
	"bcache/internal/stackdist"
	"bcache/internal/trace"
	"bcache/internal/victim"
	"bcache/internal/workload"
)

// lineBytes is the L1 line size every experiment uses.
const lineBytes = 32

// instructions is the number of instructions generated per profile. The
// committed statistics in benchmark/expected.json hold at this count only.
const instructions = 200_000

// seedShift matches the replica seed spacing of `experiments -seeds`, so
// -seed k replays exactly the inputs of the program's k-th replica.
const seedShift = 1_000_003

// replayerTrack is the Worker id of the replayer's spans: its own Perfetto
// track, clear of the program's scheduler workers and shared track.
const replayerTrack = 100

// l1Sizes are the L1 capacities each workload's experiments simulate:
// fig12 draws 32 kB and 8 kB panels, fig8 and the campaign's core
// figures use the paper's 16 kB. Workloads with the same sizes make the
// same replay, so their statistics are committed once, keyed by sizes.
var l1Sizes = map[string][]int{
	"campaign": {16 * 1024},
	"missrate": {32 * 1024, 8 * 1024},
	"ipc":      {16 * 1024},
}

// layerCost accumulates a metric's numerator (host nanoseconds, or bytes
// for the encoded size) and its units of work.
type layerCost struct {
	sum  int64
	work uint64
}

type replayer struct {
	journal *tracespan.Journal
	costs   map[string]*layerCost
	stats   map[string]map[string]uint64
}

// span times f, records it as a layer span and charges its duration to
// metric, with work units of that metric's denominator.
func (d *replayer) span(metric, profile string, work uint64, f func() string) {
	start := time.Now()
	detail := f()
	dur := time.Since(start)
	d.journal.Record(tracespan.Span{
		Kind:          "layer",
		Name:          metric + "/" + profile,
		Worker:        replayerTrack,
		Unit:          -1,
		StartUnixNano: start.UnixNano(),
		DurNanos:      dur.Nanoseconds(),
		Detail:        detail,
	})
	d.charge(metric, dur.Nanoseconds(), work)
}

func (d *replayer) charge(metric string, sum int64, work uint64) {
	c := d.costs[metric]
	if c == nil {
		c = &layerCost{}
		d.costs[metric] = c
	}
	c.sum += sum
	c.work += work
}

func (d *replayer) add(layer, stat string, v uint64) {
	m := d.stats[layer]
	if m == nil {
		m = map[string]uint64{}
		d.stats[layer] = m
	}
	m[stat] += v
}

// streams is one profile's generated instructions and the cache-visible
// address streams extracted from them the way the experiments do.
type streams struct {
	recs  []trace.Record
	data  []cache.MemAccess
	fetch []addr.Addr
}

func extract(recs []trace.Record) streams {
	s := streams{recs: recs}
	lineMask := ^addr.Addr(lineBytes - 1)
	curLine := ^addr.Addr(0)
	for _, r := range recs {
		if line := r.PC & lineMask; line != curLine {
			curLine = line
			s.fetch = append(s.fetch, r.PC)
		}
		if r.Kind.IsMem() {
			s.data = append(s.data, cache.NewMemAccess(r.Mem, r.Kind == trace.Store))
		}
	}
	return s
}

// replay drives c with the data stream and returns its statistics.
func replay(c cache.Cache, data []cache.MemAccess) *cache.Stats {
	for _, m := range data {
		c.Access(m.Addr(), m.Write())
	}
	return c.Stats()
}

// fnv folds the record stream into one checksum, so a generator change
// that keeps counts but moves addresses still shows.
func fnv(recs []trace.Record) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	for _, r := range recs {
		word(uint64(r.PC))
		word(uint64(r.Mem))
		word(uint64(r.Kind) | uint64(r.Src1)<<8 | uint64(r.Src2)<<16 | uint64(r.Dst)<<24 | uint64(r.Lat)<<32)
	}
	return h
}

func (d *replayer) profile(p *workload.Profile, n uint64, sizes []int) error {
	name := p.Name
	var recs []trace.Record
	var genErr error
	d.span("workload.gen_ns_per_instr", name, n, func() string {
		g, err := workload.New(p)
		if err != nil {
			genErr = err
			return ""
		}
		recs = make([]trace.Record, 0, n)
		for i := uint64(0); i < n; i++ {
			r, _ := g.Next()
			recs = append(recs, r)
		}
		return fmt.Sprintf("instructions=%d", n)
	})
	if genErr != nil {
		return fmt.Errorf("%s: generate: %w", name, genErr)
	}
	s := extract(recs)
	d.add("workload", "instructions", n)
	d.add("workload", "mem_refs", uint64(len(s.data)))
	d.add("workload", "fetch_lines", uint64(len(s.fetch)))
	d.add("workload", "checksum", fnv(recs)%(1<<47))

	if err := d.codec(name, recs); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, size := range sizes {
		if err := d.engines(name, size, s); err != nil {
			return fmt.Errorf("%s/%dkB: %w", name, size/1024, err)
		}
	}
	return d.timing(name, s, n)
}

// codec round-trips the records through the spill/reload format the
// trace cache writes (trace.CompressedWriter/Reader).
func (d *replayer) codec(name string, recs []trace.Record) error {
	var buf bytes.Buffer
	var err error
	work := uint64(len(recs))
	d.span("trace.encode_ns_per_rec", name, work, func() string {
		var w *trace.CompressedWriter
		if w, err = trace.NewCompressedWriter(&buf); err != nil {
			return ""
		}
		for _, r := range recs {
			if err = w.Write(r); err != nil {
				return ""
			}
		}
		err = w.Close()
		return fmt.Sprintf("records=%d bytes=%d", work, buf.Len())
	})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	encoded := uint64(buf.Len())
	var decoded []trace.Record
	d.span("trace.decode_ns_per_rec", name, work, func() string {
		var r *trace.CompressedReader
		if r, err = trace.NewCompressedReader(bytes.NewReader(buf.Bytes())); err != nil {
			return ""
		}
		decoded = make([]trace.Record, 0, len(recs))
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			decoded = append(decoded, rec)
		}
		err = r.Err()
		return fmt.Sprintf("records=%d", len(decoded))
	})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if len(decoded) != len(recs) {
		return fmt.Errorf("decode: %d records back from %d", len(decoded), len(recs))
	}
	for i := range recs {
		if decoded[i] != recs[i] {
			return fmt.Errorf("decode: record %d differs after round trip", i)
		}
	}
	d.charge("trace.encoded_bytes_per_rec", int64(encoded), work)
	d.add("trace", "encoded_bytes", encoded)
	d.add("trace", "records", work)
	return nil
}

// engines replays the data stream through every functional cache engine
// the miss-rate experiments use, at one L1 capacity.
func (d *replayer) engines(name string, size int, s streams) error {
	tag := fmt.Sprintf("%s/%dkB", name, size/1024)
	acc := uint64(len(s.data))
	sets := size / lineBytes

	type engine struct {
		metric, layer string
		build         func() (cache.Cache, error)
	}
	replayMisses := map[string]uint64{}
	for _, e := range []engine{
		{"cache.dm_ns_per_access", "cache.dm", func() (cache.Cache, error) { return cache.NewDirectMapped(size, lineBytes) }},
		{"cache.setassoc8_ns_per_access", "cache.setassoc8", func() (cache.Cache, error) {
			return cache.NewSetAssoc(size, lineBytes, 8, cache.LRU, rng.New(1))
		}},
		{"core.bcache_ns_per_access", "core.bcache", func() (cache.Cache, error) {
			return core.New(core.Config{SizeBytes: size, LineBytes: lineBytes, MF: 8, BAS: 8, Policy: cache.LRU})
		}},
		{"victim.ns_per_access", "victim", func() (cache.Cache, error) { return victim.New(size, lineBytes, 16) }},
		{"altcache.column_ns_per_access", "altcache.column", func() (cache.Cache, error) { return altcache.NewColumn(size, lineBytes) }},
		{"altcache.skewed_ns_per_access", "altcache.skewed", func() (cache.Cache, error) {
			return altcache.NewSkewed(size, lineBytes, rng.New(1))
		}},
		{"altcache.hac_ns_per_access", "altcache.hac", func() (cache.Cache, error) { return altcache.NewHAC(size, lineBytes) }},
		{"altcache.psa_ns_per_access", "altcache.psa", func() (cache.Cache, error) { return altcache.NewPSA(size, lineBytes, 10) }},
		{"altcache.agac_ns_per_access", "altcache.agac", func() (cache.Cache, error) { return altcache.NewAGAC(size, lineBytes, 32, 4096) }},
		{"altcache.pam_ns_per_access", "altcache.pam", func() (cache.Cache, error) { return altcache.NewPAM(size, lineBytes, 4, 5) }},
	} {
		c, err := e.build()
		if err != nil {
			return fmt.Errorf("%s: %w", e.layer, err)
		}
		var st *cache.Stats
		d.span(e.metric, tag, acc, func() string {
			st = replay(c, s.data)
			return fmt.Sprintf("accesses=%d misses=%d", st.Accesses, st.Misses)
		})
		d.add(e.layer, "misses", st.Misses)
		d.add(e.layer, "writebacks", st.Writebacks)
		switch cc := c.(type) {
		case *core.BCache:
			d.add(e.layer, "miss_pd_hits", cc.PDStats().MissPDHit)
		case *victim.Cache:
			d.add(e.layer, "victim_hits", cc.BufferHits)
		}
		replayMisses[e.layer] = st.Misses
	}
	geoms := []stackdist.Geom{{Sets: sets, Ways: 1}, {Sets: sets / 2, Ways: 2}, {Sets: sets / 4, Ways: 4}, {Sets: sets / 8, Ways: 8}}
	lru, err := stackdist.NewProfile(lineBytes, geoms)
	if err != nil {
		return fmt.Errorf("stackdist.lru: %w", err)
	}
	d.span("stackdist.lru_ns_per_access", tag, acc, func() string {
		for _, m := range s.data {
			lru.Access(m.Addr())
		}
		return fmt.Sprintf("accesses=%d", lru.Accesses())
	})
	// The stack-distance profile and the replay engines answer the same
	// question for these geometries; any disagreement is a bug in one of
	// them, whatever the seed.
	sameAs := map[int]string{1: "cache.dm", 8: "cache.setassoc8"}
	for _, g := range geoms {
		m, err := lru.Misses(g.Sets, g.Ways)
		if err != nil {
			return fmt.Errorf("stackdist.lru: %w", err)
		}
		d.add("stackdist.lru", fmt.Sprintf("misses_%dway", g.Ways), m)
		if layer, ok := sameAs[g.Ways]; ok && m != replayMisses[layer] {
			return fmt.Errorf("stackdist.lru: %d-way profile says %d misses, %s replay says %d",
				g.Ways, m, layer, replayMisses[layer])
		}
	}
	fifo, err := stackdist.NewFIFOProfile(lineBytes, geoms[1:])
	if err != nil {
		return fmt.Errorf("stackdist.fifo: %w", err)
	}
	d.span("stackdist.fifo_ns_per_access", tag, acc, func() string {
		for _, m := range s.data {
			fifo.Access(m.Addr())
		}
		return fmt.Sprintf("accesses=%d", fifo.Accesses())
	})
	for _, g := range geoms[1:] {
		m, err := fifo.Misses(g.Sets, g.Ways)
		if err != nil {
			return fmt.Errorf("stackdist.fifo: %w", err)
		}
		d.add("stackdist.fifo", fmt.Sprintf("misses_%dway", g.Ways), m)
	}
	return nil
}

// timing drives the memory hierarchy access by access in program order
// (direct-mapped L1s, as the baseline column of fig8), then runs the
// out-of-order CPU model over the records with B-Cache L1s (fig8's
// B-Cache column), whose dirty victims write back into the L2.
func (d *replayer) timing(name string, s streams, n uint64) error {
	const size = 16 * 1024
	ic, err := cache.NewDirectMapped(size, lineBytes)
	if err != nil {
		return err
	}
	dc, err := cache.NewDirectMapped(size, lineBytes)
	if err != nil {
		return err
	}
	h, err := hier.New(ic, dc, hier.Defaults())
	if err != nil {
		return fmt.Errorf("hier: %w", err)
	}
	var cycles uint64
	d.span("hier.ns_per_access", name, uint64(len(s.fetch)+len(s.data)), func() string {
		lineMask := ^addr.Addr(lineBytes - 1)
		curLine := ^addr.Addr(0)
		for _, r := range s.recs {
			if line := r.PC & lineMask; line != curLine {
				curLine = line
				cycles += uint64(h.Fetch(r.PC))
			}
			if r.Kind.IsMem() {
				cycles += uint64(h.Data(r.Mem, r.Kind == trace.Store))
			}
		}
		return fmt.Sprintf("latency_cycles=%d l2_misses=%d", cycles, h.L2.Stats().Misses)
	})
	d.add("hier", "latency_cycles", cycles)
	d.add("hier", "l2_misses", h.L2.Stats().Misses)

	newBC := func() (cache.Cache, error) {
		return core.New(core.Config{SizeBytes: size, LineBytes: lineBytes, MF: 8, BAS: 8, Policy: cache.LRU})
	}
	bi, err := newBC()
	if err != nil {
		return err
	}
	bd, err := newBC()
	if err != nil {
		return err
	}
	hb, err := hier.New(bi, bd, hier.Defaults())
	if err != nil {
		return fmt.Errorf("hier: %w", err)
	}
	var res cpu.Result
	d.span("cpu.ns_per_instr", name, n, func() string {
		res, err = cpu.Run(trace.NewSliceStream(s.recs), hb, cpu.Defaults(), n)
		return fmt.Sprintf("instructions=%d cycles=%d", res.Instructions, res.Cycles)
	})
	if err != nil {
		return fmt.Errorf("cpu: %w", err)
	}
	d.add("cpu", "instructions", res.Instructions)
	d.add("cpu", "cycles", res.Cycles)
	d.add("cpu", "l2_misses", hb.L2.Stats().Misses)
	return nil
}

// withSeed returns p shifted to replica seed k (k=0: canonical).
func withSeed(p *workload.Profile, k uint64) *workload.Profile {
	if k == 0 {
		return p
	}
	q := *p
	q.Regions = append([]workload.Region(nil), p.Regions...)
	q.Seed += k * seedShift
	return &q
}

func run() error {
	var (
		wl      = flag.String("workload", "", "benchmark workload: campaign | missrate | ipc")
		seed    = flag.Uint64("seed", 0, "workload replica seed (0 = the experiments' canonical seeds)")
		merge   = flag.String("merge", "", "span journal JSONL of the experiments run to fold into the exports")
		outPath = flag.String("trace-out", "", "write the combined span journal as JSONL to this file")
		chrome  = flag.String("trace-chrome", "", "write the combined span journal as a Chrome trace-event file")
	)
	flag.Parse()
	sizes, ok := l1Sizes[*wl]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *wl)
	}
	d := &replayer{
		journal: tracespan.NewJournal(0, nil),
		costs:   map[string]*layerCost{},
		stats:   map[string]map[string]uint64{},
	}
	if *merge != "" {
		f, err := os.Open(*merge)
		if err != nil {
			return err
		}
		_, spans, err := tracespan.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", *merge, err)
		}
		for _, s := range spans {
			d.journal.Record(s)
		}
	}
	for _, p := range workload.All() {
		if err := d.profile(withSeed(p, *seed), instructions, sizes); err != nil {
			return err
		}
	}

	metrics := map[string]float64{}
	for name, c := range d.costs {
		metrics[name] = float64(c.sum) / float64(c.work)
	}
	if *outPath != "" {
		if err := d.journal.WriteJSONLFile(*outPath); err != nil {
			return err
		}
	}
	if *chrome != "" {
		if err := d.journal.WriteChromeTraceFile(*chrome); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Workload string                       `json:"workload"`
		Seed     uint64                       `json:"seed"`
		L1Sizes  []int                        `json:"l1Sizes"`
		Metrics  map[string]float64           `json:"metrics"`
		Stats    map[string]map[string]uint64 `json:"stats"`
	}{*wl, *seed, sizes, metrics, d.stats})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}
