package experiment

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bcache/internal/workload"
)

// TestTraceCacheSingleflight: concurrent requests for the same stream
// build it exactly once and all receive the same immutable trace.
func TestTraceCacheSingleflight(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	traces := make([]*dataTrace, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			at, err := cachedData(opts, p)
			if err != nil {
				t.Error(err)
				return
			}
			traces[i] = at
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if traces[i] != traces[0] {
			t.Fatalf("caller %d got a distinct trace instance", i)
		}
	}
	c := TraceCacheStats()
	// One build — a single generator pass, whose fetch sibling is filled
	// alongside without a miss of its own — and every other caller hits.
	if c.Misses != 1 || c.Hits != callers-1 || c.Generations != 1 {
		t.Fatalf("counters = %+v, want 1 miss, %d hits, 1 generation", c, callers-1)
	}
	if c.Bytes < traces[0].sizeBytes() {
		t.Fatalf("accounted %d bytes, access trace alone holds %d", c.Bytes, traces[0].sizeBytes())
	}
}

// TestTraceCacheKeying: a shifted seed or different instruction count is
// a different stream; a repeat request is not.
func TestTraceCacheKeying(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	p, err := workload.ByName("equake")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if a2, _ := cachedData(opts, p); a2 != a1 {
		t.Fatal("identical request rebuilt the trace")
	}
	if as, _ := cachedData(opts, withSeed(p, 1)); as == a1 {
		t.Fatal("shifted seed shared the canonical trace")
	}
	shorter := opts
	shorter.Instructions /= 2
	if an, _ := cachedData(shorter, p); an == a1 {
		t.Fatal("different instruction count shared the trace")
	}
	c := TraceCacheStats()
	// Three distinct data keys, one generator pass each.
	if c.Misses != 3 || c.Hits != 1 || c.Generations != 3 {
		t.Fatalf("counters = %+v, want 3 misses, 1 hit, 3 generations", c)
	}
}

// TestTraceCacheEviction: a budget below the working set drops the
// least recently used entries, the accounting follows, and an evicted
// trace comes back as a fresh generator pass bit-identical to the
// original. Nothing is written to disk.
func TestTraceCacheEviction(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	opts := tinyOpts()
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	// Room for one (data, fetch) pair and a half: the next pair must
	// evict the first.
	pair := TraceCacheStats().Bytes
	opts.TraceBytes = pair + pair/2
	if _, err := cachedData(opts, withSeed(p, 1)); err != nil {
		t.Fatal(err)
	}
	c := TraceCacheStats()
	if c.Evictions == 0 {
		t.Fatalf("no eviction under tight budget: %+v", c)
	}
	if c.Bytes > opts.TraceBytes {
		t.Fatalf("cache holds %d bytes over budget %d", c.Bytes, opts.TraceBytes)
	}
	sharedTraces.mu.Lock()
	_, resident := sharedTraces.entries[dataTraceKey(opts, p)]
	sharedTraces.mu.Unlock()
	if resident {
		t.Fatal("the least recently used data stream survived eviction")
	}
	// Re-requesting the evicted trace rebuilds it from the generator.
	a2, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	after := TraceCacheStats()
	if after.Misses != c.Misses+1 || after.Generations != c.Generations+1 {
		t.Fatalf("evicted trace was not rebuilt once: before %+v, after %+v", c, after)
	}
	if a2 == a1 {
		t.Fatal("evicted trace came back as the same instance")
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("rebuilt trace differs from the original")
	}
	if after.Bytes > opts.TraceBytes {
		t.Fatalf("cache holds %d bytes over budget %d after the rebuild", after.Bytes, opts.TraceBytes)
	}
	if spills, _ := filepath.Glob(filepath.Join(tmp, "bcache-tracespill-*")); len(spills) != 0 {
		t.Fatalf("eviction wrote to disk: %q", spills)
	}
}

// TestTraceCacheBypass: a negative budget disables memoization entirely.
func TestTraceCacheBypass(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.TraceBytes = -1
	p, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a1, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("bypass mode returned a shared instance")
	}
	if c := TraceCacheStats(); c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("bypass mode touched the shared cache: %+v", c)
	}
}

// TestSuiteZeroDuplicateGeneration: repeating the full miss-rate fan-out
// never regenerates a stream — misses equal the number of distinct
// (profile, seed) keys regardless of specs, sides, or repetition.
func TestSuiteZeroDuplicateGeneration(t *testing.T) {
	ResetTraceCache()
	ResetUnitMemo() // stored units skip trace fetches entirely
	defer ResetTraceCache()
	opts := tinyOpts()
	opts.Seeds = 2
	profiles := workload.All()
	for round := 0; round < 2; round++ {
		for _, s := range []side{dSide, iSide} {
			if _, err := missRates(opts, profiles, figureSpecs(), s); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := TraceCacheStats()
	want := uint64(len(profiles) * opts.Seeds)
	if c.Generations != want {
		t.Fatalf("generated %d streams, want %d (duplicate generation)", c.Generations, want)
	}
	// One build per distinct key, nothing more: the iSide round's fetch
	// streams were filled by the dSide builds, so they hit instead of
	// missing.
	if c.Misses != want {
		t.Fatalf("built %d entries, want %d (duplicate builds)", c.Misses, want)
	}
	if c.Hits == 0 {
		t.Fatal("cache recorded no hits across repeated suite runs")
	}
}

// TestTimedMemoShared: fig8 and fig9 request the identical timed sweep;
// the second request must reuse the first's simulations.
func TestTimedMemoShared(t *testing.T) {
	ResetTimedCache()
	defer ResetTimedCache()
	opts := tinyOpts()
	opts.Instructions = 40_000
	r1, err := timedResults(opts, timedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := timedResults(opts, timedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(r1).Pointer() != reflect.ValueOf(r2).Pointer() {
		t.Fatal("identical timed sweep was recomputed")
	}
	bigger := opts
	bigger.Instructions *= 2
	r3, err := timedResults(bigger, timedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(r3).Pointer() == reflect.ValueOf(r1).Pointer() {
		t.Fatal("different opts shared a memo entry")
	}
}

// TestRunUnitsCoversAll: every index is executed exactly once.
func TestRunUnitsCoversAll(t *testing.T) {
	const n = 1000
	var seen [n]atomic.Int32
	if err := runUnitsCtl(n, 8, unitOpts{}, func(i int) (func(), error) {
		seen[i].Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("unit %d ran %d times", i, got)
		}
	}
}

// TestRunUnitsSurvivesFailure: a failure costs that one unit, not the
// rest of the run — every sibling still executes, and the failure is
// reported.
func TestRunUnitsSurvivesFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := runUnitsCtl(1000, 1, unitOpts{}, func(i int) (func(), error) {
		ran.Add(1)
		if i == 3 {
			return nil, boom
		}
		return nil, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if got := ran.Load(); got != 1000 {
		t.Fatalf("ran %d units, want all 1000 despite unit 3 failing", got)
	}
}

// TestRunUnitsJoinsConcurrentErrors: two workers failing together are
// both reported instead of one being dropped.
func TestRunUnitsJoinsConcurrentErrors(t *testing.T) {
	var gate sync.WaitGroup
	gate.Add(2)
	err := runUnitsCtl(2, 2, unitOpts{}, func(i int) (func(), error) {
		gate.Done()
		gate.Wait() // both workers fail simultaneously
		return nil, fmt.Errorf("unit %d failed", i)
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	for i := 0; i < 2; i++ {
		want := fmt.Sprintf("unit %d failed", i)
		found := false
		for _, e := range multiUnwrap(err) {
			if strings.Contains(e.Error(), want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("joined error %q lost %q", err, want)
		}
	}
}

// multiUnwrap flattens an errors.Join result (or a single error).
func multiUnwrap(err error) []error {
	if m, ok := err.(interface{ Unwrap() []error }); ok {
		return m.Unwrap()
	}
	return []error{err}
}

// TestRunCellsWrapsLabel: runCells returns the cells in index order
// and prefixes a failing cell's error with its label.
func TestRunCellsWrapsLabel(t *testing.T) {
	profiles := workload.All()
	boom := errors.New("boom")
	uo := unitOpts{Label: func(i int) string { return profiles[i].Name }}
	opts := tinyOpts()
	opts.Workers = 2
	names, err := runCells(opts, len(profiles), uo, func(i int) (string, error) {
		if i == 0 {
			return "", boom
		}
		return profiles[i].Name, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want wrapped %v", err, boom)
	}
	want := profiles[0].Name + ": boom"
	found := false
	for _, e := range multiUnwrap(err) {
		if strings.Contains(e.Error(), want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("error %q does not name the failing profile (%q)", err, want)
	}
	for i, p := range profiles[1:] {
		if names[i+1] != p.Name {
			t.Fatalf("cell %d = %q, want %q (index order)", i+1, names[i+1], p.Name)
		}
	}
	if names[0] != "" {
		t.Fatalf("failed cell holds %q, want the zero value", names[0])
	}
}
