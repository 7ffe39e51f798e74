package experiment

import (
	"testing"

	"bcache/internal/trace"
	"bcache/internal/workload"
)

// TestPeakBytesHighWater: PeakBytes records the resident high-water
// mark, which survives the evictions that later shrink Bytes.
func TestPeakBytesHighWater(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	// Two (data, fetch) pairs resident, then a budget only one fits.
	for seed := 0; seed < 2; seed++ {
		if _, err := cachedData(opts, withSeed(p, seed)); err != nil {
			t.Fatal(err)
		}
	}
	high := TraceCacheStats()
	if high.PeakBytes < high.Bytes || high.PeakBytes == 0 {
		t.Fatalf("peak %d below resident %d", high.PeakBytes, high.Bytes)
	}
	opts.TraceBytes = 1
	if _, err := cachedData(opts, withSeed(p, 2)); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.PeakBytes < high.PeakBytes {
		t.Fatalf("peak shrank from %d to %d", high.PeakBytes, c.PeakBytes)
	}
	if c.Bytes >= c.PeakBytes {
		t.Fatalf("tight budget left resident %d at peak %d", c.Bytes, c.PeakBytes)
	}
}

// TestPeakStaysWithinBudget: eviction makes room before a new entry is
// accounted, so the resident high-water mark never exceeds the budget
// as long as completed entries exist to evict.
func TestPeakStaysWithinBudget(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	if _, err := cachedData(opts, mustProfile(t, "gcc")); err != nil {
		t.Fatal(err)
	}
	pair := TraceCacheStats().Bytes
	ResetTraceCache()
	// A budget that fits one (data, fetch) pair plus change, but not two.
	opts.TraceBytes = pair + pair/2
	for _, name := range []string{"gcc", "equake", "crafty"} {
		if _, err := cachedData(opts, mustProfile(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	c := TraceCacheStats()
	if c.Evictions == 0 {
		t.Fatalf("three benchmarks under a one-pair budget evicted nothing: %+v", c)
	}
	if c.PeakBytes > opts.TraceBytes {
		t.Fatalf("resident peak %d exceeded budget %d", c.PeakBytes, opts.TraceBytes)
	}
}

// TestRecordsEvictedBeforeStreams: under budget pressure the record
// trace is the designated victim even when a stream payload is older.
func TestRecordsEvictedBeforeStreams(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p := mustProfile(t, "gcc")
	if _, err := cachedData(opts, p); err != nil { // the data and fetch pair
		t.Fatal(err)
	}
	if _, err := cachedRecords(opts, p); err != nil { // newer than the pair
		t.Fatal(err)
	}
	// Pin the budget at the current working set: the next pair must
	// make room for itself.
	opts.TraceBytes = TraceCacheStats().Bytes
	if _, err := cachedData(opts, withSeed(p, 1)); err != nil {
		t.Fatal(err)
	}
	rKey := traceKey{kind: kindRecords, name: p.Name, seed: p.Seed, instructions: opts.Instructions}
	sharedTraces.mu.Lock()
	_, recordsResident := sharedTraces.entries[rKey]
	_, dataResident := sharedTraces.entries[dataTraceKey(opts, p)]
	_, fetchResident := sharedTraces.entries[fetchTraceKey(opts, p)]
	sharedTraces.mu.Unlock()
	if recordsResident {
		t.Fatal("record trace survived eviction pressure")
	}
	if !dataResident || !fetchResident {
		t.Fatal("an older stream was evicted while a record trace was resident")
	}
}

// TestReserveEvictsBeforeBuild: a build whose size is known up front
// (a record trace) makes room and accounts its bytes before it runs, so
// the entry it displaces is already gone while the generator allocates.
func TestReserveEvictsBeforeBuild(t *testing.T) {
	tc := newTraceCache()
	const recs = 100
	const size = recs * recordBytes
	const budget = size + size/2 // room for one record trace, not two
	build := func(check func()) func() (payload, payload, error) {
		return func() (payload, payload, error) {
			if check != nil {
				check()
			}
			return &recordTrace{recs: make([]trace.Record, recs)}, nil, nil
		}
	}
	first := traceKey{kind: kindRecords, name: "first"}
	if _, err := tc.get(first, nil, budget, size, build(nil)); err != nil {
		t.Fatal(err)
	}
	second := traceKey{kind: kindRecords, name: "second"}
	if _, err := tc.get(second, nil, budget, size, build(func() {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		if _, ok := tc.entries[first]; ok {
			t.Error("the displaced record trace was still resident during the build")
		}
		if tc.used != size {
			t.Errorf("%d bytes accounted during the build, want the %d reserved", tc.used, size)
		}
	})); err != nil {
		t.Fatal(err)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.used != size || tc.c.PeakBytes != size || tc.c.Evictions != 1 {
		t.Fatalf("used %d, counters %+v; want %d bytes, peak %d, 1 eviction", tc.used, tc.c, size, size)
	}
}

func mustProfile(t *testing.T, name string) *workload.Profile {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
