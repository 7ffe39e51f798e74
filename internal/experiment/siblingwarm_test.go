package experiment

import (
	"reflect"
	"sync"
	"testing"

	"bcache/internal/workload"
)

// Coverage for sibling filling: a cachedData miss runs one generator
// pass that yields both streams, and fills the fetch stream's entry as
// well, so the next cachedFetch hits. Both streams must match what a
// fresh materialize pass produces. The concurrency half races data and
// fetch requests for one key under the race-robust gate (-race over
// ./internal/experiment/...): the generator must still run once.

func siblingOpts() Opts {
	o := DefaultOpts()
	o.Instructions = 60_000
	o.TraceBytes = 1 << 30
	return o
}

// oracleStreams runs materialize once and hands back both streams.
func oracleStreams(t *testing.T, p *workload.Profile, o Opts) (*dataTrace, *fetchTrace) {
	t.Helper()
	dt, ft, err := materialize(p, o.Instructions, o.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	return dt, ft
}

// TestSiblingWarmingMatchesOracle: the fetch stream filled by a
// cachedData build serves the next cachedFetch from memory — no second
// generator run — and matches materialize exactly.
func TestSiblingWarmingMatchesOracle(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := siblingOpts()
	p := mustProfile(t, "gcc")
	wantData, wantFetch := oracleStreams(t, p, opts)

	dt, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dt.accs, wantData.accs) {
		t.Fatal("cachedData stream diverges from materialize")
	}

	// The sibling must already be resident before any fetch request.
	sharedTraces.mu.Lock()
	_, warmed := sharedTraces.entries[fetchTraceKey(opts, p)]
	sharedTraces.mu.Unlock()
	if !warmed {
		t.Fatal("cachedData did not fill the fetch sibling")
	}

	before := TraceCacheStats()
	ft, err := cachedFetch(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ft.pcs, wantFetch.pcs) {
		t.Fatal("sibling-warmed fetch stream diverges from materialize")
	}
	after := TraceCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("warmed fetch was not a memory hit: hits %d -> %d", before.Hits, after.Hits)
	}
	if after.Generations != 1 {
		t.Fatalf("generator ran %d times; the sibling should have prevented a second run", after.Generations)
	}
}

// TestSiblingWarmingConcurrent races data and fetch requests for the
// same key from several goroutines per profile, so a request for either
// stream may find the other's build in flight. Every returned stream
// must match the per-profile oracle regardless of which request built
// it, and each profile must cost exactly one build and one generator
// pass.
func TestSiblingWarmingConcurrent(t *testing.T) {
	ResetTraceCache()
	defer ResetTraceCache()
	opts := siblingOpts()

	profiles := workload.All()[:3]
	type want struct {
		data  *dataTrace
		fetch *fetchTrace
	}
	wants := make(map[string]want, len(profiles))
	for _, p := range profiles {
		d, f := oracleStreams(t, p, opts)
		wants[p.Name] = want{data: d, fetch: f}
	}

	const callers = 4
	var wg sync.WaitGroup
	for _, p := range profiles {
		for i := 0; i < callers; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				dt, err := cachedData(opts, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(dt.accs, wants[p.Name].data.accs) {
					t.Errorf("%s: concurrent cachedData diverges from materialize", p.Name)
				}
			}()
			go func() {
				defer wg.Done()
				ft, err := cachedFetch(opts, p)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ft.pcs, wants[p.Name].fetch.pcs) {
					t.Errorf("%s: concurrent cachedFetch diverges from materialize", p.Name)
				}
			}()
		}
	}
	wg.Wait()

	c := TraceCacheStats()
	keys := uint64(len(profiles))
	if c.Generations != keys || c.Misses != keys {
		t.Fatalf("%d generations, %d misses for %d profiles; each must build once",
			c.Generations, c.Misses, keys)
	}
	if want := 2*callers*keys - keys; c.Hits != want {
		t.Fatalf("hits = %d, want %d (every request but the builders')", c.Hits, want)
	}
}
