package experiment

import (
	"sync"
	"time"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/obs/tracespan"
	"bcache/internal/trace"
	"bcache/internal/workload"
)

// The experiments replay the same few instruction streams against many
// cache configurations, and several experiments share benchmarks, so
// regenerating a stream per call site wastes most of the suite's time.
// traceCache memoizes three payload kinds, content-addressed by
// everything the payload depends on:
//
//   - data traces: the D-cache byte-address stream for (profile name,
//     seed, instructions), packed 8 bytes per access. Set and tag
//     derivation happen inside the caches, so the stream does not
//     depend on the line size: every line-size variant of an experiment
//     shares one entry;
//   - fetch traces: the I-cache stream for (profile name, seed,
//     instructions, line bytes) — consecutive same-line PCs collapse,
//     so this is the one stream a line-size sweep re-derives;
//   - record traces: the raw generator output for (profile name, seed,
//     instructions), which only the timed CPU model consumes.
//
// A stream build is one generator pass (materialize) that yields BOTH
// streams. The build reserves the sibling stream's key next to its own
// when the sibling is absent, so a concurrent request for the other side
// waits on the same build instead of starting a second generator run,
// and a later request hits. No record trace is created for a stream.
//
// Entries are built once under a singleflight channel — duplicate
// requesters block on the first builder. When the byte budget is
// exceeded, completed entries are dropped — record traces first, then
// the least recently used (see evictLocked); a later request for one
// rebuilds it bit-identically (the generator is deterministic). Evicted
// payloads stay usable by anyone already holding the pointer; payloads
// are immutable after build.
//
// The budget bounds cache-RESIDENT bytes, and eviction makes room
// BEFORE a new entry is accounted, so the resident high-water mark
// (PeakBytes) stays at or below the budget whenever enough completed
// entries exist to evict. Units currently replaying a stream pin their
// own pointer for the duration, so transient process RSS can still
// exceed the budget by the working set of in-flight units.

// defaultTraceBytes bounds the shared cache when Opts does not say
// otherwise. At DefaultOpts the full suite's steady working set is
// every profile's data stream (~4.4 MB each) plus its 32-byte-line
// fetch stream (~2.5 MB each) plus one resident record trace (~48 MB);
// 232 MiB holds all of that with a little headroom.
const defaultTraceBytes = 232 << 20

// payloadKind discriminates the three cached stream representations.
type payloadKind uint8

const (
	kindData    payloadKind = iota // packed D-cache address streams
	kindFetch                      // I-cache fetch streams, per line size
	kindRecords                    // raw generator records
)

// traceKey identifies one cached payload.
type traceKey struct {
	kind         payloadKind
	name         string
	seed         uint64
	instructions uint64
	// lineBytes is 0 for record and data traces: neither the generator
	// nor the D-side byte-address stream depends on the cache line size.
	lineBytes int
}

// payload is one cached value: a dataTrace, fetchTrace, or recordTrace.
// Implementations are immutable after build.
type payload interface {
	sizeBytes() int64
}

// traceEntry is one in-memory slot. ready is closed when val/err are
// set.
type traceEntry struct {
	ready   chan struct{}
	val     payload
	err     error
	size    int64
	lastUse uint64
}

// TraceCacheCounters reports shared trace-cache effectiveness.
type TraceCacheCounters struct {
	// Hits are lookups served by an entry already resident or in
	// flight (a sibling stream reserved by another build counts here);
	// Misses are lookups that started a build.
	Hits   uint64
	Misses uint64
	// Generations counts workload-generator runs: one per build, since
	// a stream build makes both streams in one pass.
	Generations uint64
	// Evictions counts entries dropped under budget pressure.
	Evictions uint64
	// Bytes is resident; PeakBytes is the resident high-water mark.
	Bytes     int64
	PeakBytes int64
}

type traceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry // guarded by mu
	used    int64                    // guarded by mu
	ticks   uint64                   // guarded by mu
	c       TraceCacheCounters       // guarded by mu
}

// sharedTraces is the process-wide cache; all experiments go through it.
var sharedTraces = newTraceCache()

func newTraceCache() *traceCache {
	return &traceCache{entries: map[traceKey]*traceEntry{}}
}

// ResetTraceCache drops all memoized traces and counters (test hook and
// perfbench cold start).
func ResetTraceCache() {
	tc := sharedTraces
	tc.mu.Lock()
	tc.entries = map[traceKey]*traceEntry{}
	tc.used = 0
	tc.ticks = 0
	tc.c = TraceCacheCounters{}
	tc.mu.Unlock()
}

// TraceCacheStats returns a snapshot of the shared cache counters.
func TraceCacheStats() TraceCacheCounters {
	tc := sharedTraces
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c := tc.c
	c.Bytes = tc.used
	return c
}

// dataTrace is the packed D-cache access stream for one (profile, seed,
// n). Immutable after build.
type dataTrace struct {
	name string
	accs []memAcc
}

func (dt *dataTrace) sizeBytes() int64 { return int64(len(dt.accs)) * 8 }

// fetchTrace is the I-cache access stream for one (profile, seed, n,
// line size): one PC per executed basic-block line. Immutable after
// build.
type fetchTrace struct {
	name string
	pcs  []addr.Addr
}

func (ft *fetchTrace) sizeBytes() int64 { return int64(len(ft.pcs)) * 8 }

// recordTrace is the raw generator output for one (profile, seed, n):
// the stream the timed CPU model consumes. Immutable after build.
type recordTrace struct {
	name string
	recs []trace.Record
}

// recordBytes is the in-memory stride of one trace.Record (two 8-byte
// addresses plus five bytes, padded).
const recordBytes = 24

func (rt *recordTrace) sizeBytes() int64 { return int64(len(rt.recs)) * recordBytes }

// materialize runs the generator for n instructions and extracts both
// cache-visible address streams in the one pass: the D-cache accesses in
// program order, and the I-cache accesses at lineBytes (one per executed
// basic-block line — consecutive same-line PCs collapse, matching the
// CPU model).
func materialize(p *workload.Profile, n uint64, lineBytes int) (*dataTrace, *fetchTrace, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, nil, err
	}
	dt := &dataTrace{name: p.Name, accs: make([]memAcc, 0, n/3)}
	ft := &fetchTrace{name: p.Name, pcs: make([]addr.Addr, 0, n/4)}
	lineMask := ^addr.Addr(uint64(lineBytes) - 1)
	curLine := ^addr.Addr(0)
	for i := uint64(0); i < n; i++ {
		rec, _ := g.Next()
		if line := rec.PC & lineMask; line != curLine {
			curLine = line
			ft.pcs = append(ft.pcs, rec.PC)
		}
		if rec.Kind.IsMem() {
			dt.accs = append(dt.accs, cache.NewMemAccess(rec.Mem, rec.Kind == trace.Store))
		}
	}
	return dt, ft, nil
}

// generateRecords runs the workload generator for exactly n records —
// the count the timed CPU model consumes.
func generateRecords(p *workload.Profile, n uint64) (*recordTrace, error) {
	g, err := workload.New(p)
	if err != nil {
		return nil, err
	}
	rt := &recordTrace{name: p.Name, recs: make([]trace.Record, n)}
	for i := range rt.recs {
		rt.recs[i], _ = g.Next()
	}
	return rt, nil
}

// get returns the payload for key, building it at most once per key
// while it stays resident. A build may also produce a sibling payload
// (the other stream of the same generator pass): when sib is non-nil
// and its key is absent, get reserves it alongside key so concurrent
// requests for it wait on this build, and fills it from build's second
// result. reserve is the build's size when it is known up front (record
// traces): those bytes are accounted, and room made for them, before the
// build allocates, so the evicted entries can be collected while the
// generator runs instead of after.
func (tc *traceCache) get(key traceKey, sib *traceKey, budget, reserve int64,
	build func() (val, sibVal payload, err error)) (payload, error) {
	tel := CurrentTelemetry()
	tc.mu.Lock()
	if e, ok := tc.entries[key]; ok {
		tc.ticks++
		e.lastUse = tc.ticks
		tc.c.Hits++
		used := tc.used
		tc.mu.Unlock()
		<-e.ready
		tel.traceCacheEvent(tracespan.KindTraceHit, key.name, time.Time{}, 0, used)
		return e.val, e.err
	}
	tc.ticks++
	e := &traceEntry{ready: make(chan struct{}), lastUse: tc.ticks}
	tc.entries[key] = e
	var se *traceEntry
	if sib != nil && tc.entries[*sib] == nil {
		se = &traceEntry{ready: make(chan struct{}), lastUse: tc.ticks}
		tc.entries[*sib] = se
	}
	tc.c.Misses++
	tc.c.Generations++
	tc.evictLocked(budget - reserve)
	tc.used += reserve
	tc.c.PeakBytes = max(tc.c.PeakBytes, tc.used)
	tc.mu.Unlock()

	var buildStart time.Time
	if tel != nil {
		buildStart = tel.now()
	}
	val, sibVal, err := build()
	e.val, e.err = val, err
	if err == nil {
		e.size = val.sizeBytes()
	}
	if se != nil {
		se.val, se.err = sibVal, err
		if err == nil {
			se.size = sibVal.sizeBytes()
		}
	}

	tc.mu.Lock()
	tc.used -= reserve
	if err != nil {
		// Failures are not cached; a later call may retry.
		delete(tc.entries, key)
		if se != nil {
			delete(tc.entries, *sib)
		}
	} else {
		// Make room BEFORE accounting the new entries, so the resident
		// high-water mark stays within budget whenever eviction can keep
		// up. Both entries are still unready, so eviction skips them.
		add := e.size
		if se != nil {
			add += se.size
		}
		tc.evictLocked(budget - add)
		tc.used += add
		tc.c.PeakBytes = max(tc.c.PeakBytes, tc.used)
	}
	used := tc.used
	tc.mu.Unlock()
	close(e.ready)
	if se != nil {
		close(se.ready)
	}
	if tel != nil && err == nil {
		tel.traceCacheEvent(tracespan.KindTraceBuild, key.name, buildStart, tel.now().Sub(buildStart), used)
	}
	return val, err
}

// evictLocked drops completed entries (never ones still building) until
// used fits budget. Record traces are chosen before stream payloads
// regardless of recency: only the timed CPU model reads a record trace,
// and it finishes with one profile's trace before moving on, while the
// much smaller streams are replayed again by later experiments. Without
// this tier, the full suite's 26 record traces (48 MB each at
// DefaultOpts) flush every resident stream, and later experiments
// regenerate them. Within a tier the choice is LRU. The entry count is
// small — a few per (benchmark, seed) — so a linear minimum scan is
// fine.
func (tc *traceCache) evictLocked(budget int64) {
	for tc.used > budget {
		var victim traceKey
		var oldest uint64
		found, foundRecords := false, false
		for k, e := range tc.entries {
			select {
			case <-e.ready:
			default:
				continue // still building; owner will account for it
			}
			isRecords := k.kind == kindRecords
			switch {
			case !found, isRecords && !foundRecords:
				// First candidate, or first record trace seen.
			case isRecords == foundRecords && e.lastUse < oldest:
				// Same tier, older.
			default:
				continue
			}
			victim, oldest, found, foundRecords = k, e.lastUse, true, isRecords
		}
		if !found {
			return
		}
		tc.used -= tc.entries[victim].size
		delete(tc.entries, victim)
		tc.c.Evictions++
	}
}

// traceBudget resolves the Opts knob: 0 means the default budget,
// negative disables memoization.
func (o Opts) traceBudget() int64 {
	if o.TraceBytes == 0 {
		return defaultTraceBytes
	}
	if o.TraceBytes < 0 {
		return 0
	}
	return o.TraceBytes
}

// cachedRecords returns the generator output for (p, seed, n), running
// the generator at most once per key while the trace stays resident.
func cachedRecords(opts Opts, p *workload.Profile) (*recordTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		return generateRecords(p, opts.Instructions)
	}
	key := traceKey{kind: kindRecords, name: p.Name, seed: p.Seed, instructions: opts.Instructions}
	size := int64(opts.Instructions) * recordBytes
	val, err := sharedTraces.get(key, nil, budget, size, func() (payload, payload, error) {
		rt, err := generateRecords(p, opts.Instructions)
		return rt, nil, err
	})
	if err != nil {
		return nil, err
	}
	return val.(*recordTrace), nil
}

// dataTraceKey/fetchTraceKey name the two stream payloads of one
// (profile, seed, n) — the data key deliberately omits the line size.
func dataTraceKey(opts Opts, p *workload.Profile) traceKey {
	return traceKey{kind: kindData, name: p.Name, seed: p.Seed, instructions: opts.Instructions}
}

func fetchTraceKey(opts Opts, p *workload.Profile) traceKey {
	return traceKey{kind: kindFetch, name: p.Name, seed: p.Seed,
		instructions: opts.Instructions, lineBytes: opts.LineBytes}
}

// cachedData is the D-side call-site helper: every data-cache
// experiment obtains its stream here instead of calling materialize
// directly. A miss also fills the opts.LineBytes fetch stream, so a
// later I-side experiment at the same line size hits.
func cachedData(opts Opts, p *workload.Profile) (*dataTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		dt, _, err := materialize(p, opts.Instructions, opts.LineBytes)
		return dt, err
	}
	sib := fetchTraceKey(opts, p)
	val, err := sharedTraces.get(dataTraceKey(opts, p), &sib, budget, 0, func() (payload, payload, error) {
		dt, ft, err := materialize(p, opts.Instructions, opts.LineBytes)
		return dt, ft, err
	})
	if err != nil {
		return nil, err
	}
	return val.(*dataTrace), nil
}

// cachedFetch is cachedData's I-side twin; a miss also fills the data
// stream.
func cachedFetch(opts Opts, p *workload.Profile) (*fetchTrace, error) {
	budget := opts.traceBudget()
	if budget <= 0 {
		_, ft, err := materialize(p, opts.Instructions, opts.LineBytes)
		return ft, err
	}
	sib := dataTraceKey(opts, p)
	val, err := sharedTraces.get(fetchTraceKey(opts, p), &sib, budget, 0, func() (payload, payload, error) {
		dt, ft, err := materialize(p, opts.Instructions, opts.LineBytes)
		return ft, dt, err
	})
	if err != nil {
		return nil, err
	}
	return val.(*fetchTrace), nil
}
