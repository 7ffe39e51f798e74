package experiment

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"bcache/internal/cache"
	"bcache/internal/energy"
	"bcache/internal/obs/tracespan"
	"bcache/internal/workload"
)

// TestSimulatingExperimentsScheduleUnits: every experiment that
// simulates runs its work as scheduled units, so no core waits on a
// single-goroutine loop and the unit telemetry sees all of it. The
// exceptions compute nothing per benchmark: table1–table4 are analytic,
// and fig9 reduces fig8's memoized timed runs.
func TestSimulatingExperimentsScheduleUnits(t *testing.T) {
	exempt := map[string]bool{"table1": true, "table2": true, "table3": true, "table4": true, "fig9": true}
	ResetTimedCache()
	defer ResetTimedCache()
	for _, e := range All() {
		if exempt[e.ID] {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			tel, _ := withTelemetry(t)
			if _, err := e.Run(tinyPlanOpts()); err != nil {
				t.Fatal(err)
			}
			if n := len(spansOfKind(tel.Journal(), tracespan.KindUnit)); n == 0 {
				t.Errorf("%s emitted no unit span: it runs outside the unit scheduler", e.ID)
			}
		})
	}
}

// TestUnitTimeoutReachesEveryUnit: -unit-timeout bounds every scheduled
// unit, including the timed runs behind fig8 and table7's cells, not
// only the miss-rate units.
func TestUnitTimeoutReachesEveryUnit(t *testing.T) {
	ResetTimedCache()
	defer ResetTimedCache()
	for _, id := range []string{"fig8", "table7"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			opts := tinyPlanOpts()
			opts.UnitTimeout = time.Nanosecond
			if _, err := e.Run(opts); !errors.Is(err, ErrUnitTimeout) {
				t.Fatalf("%s with a 1ns unit deadline: err = %v, want ErrUnitTimeout", id, err)
			}
		})
	}
}

// TestHeldTraceCountsUnitOnce: a unit that ends more than once (a
// retried attempt) must not release its siblings' share of the trace.
func TestHeldTraceCountsUnitOnce(t *testing.T) {
	h := heldTrace{rt: &recordTrace{}}
	h.release(0, 2)
	h.release(0, 2)
	if h.rt == nil {
		t.Fatal("unit 0 ending twice dropped the trace while unit 1 still needs it")
	}
	h.release(1, 2)
	if h.rt != nil {
		t.Fatal("trace still held after every unit ended")
	}
}

// TestStoreServesFigure4Units: fig3 and xrelated declare sweeps, so the
// units Figure 4 already committed — dm, 2/4/8-way, victim16 and MF2–16
// — are served from the result store and only the new configurations
// are simulated and committed.
func TestStoreServesFigure4Units(t *testing.T) {
	opts := tinyPlanOpts()
	cp := opts.Checkpoint
	for _, step := range []struct {
		id  string
		add int
	}{
		{"fig4", -1},
		// column, skewed2, psa, agac, pam4, hac32 per benchmark.
		{"xrelated", 6 * len(workload.All())},
		// wupwise at MF32..MF512.
		{"fig3", 5},
	} {
		e, err := ByID(step.id)
		if err != nil {
			t.Fatal(err)
		}
		before := cp.Len()
		if _, err := e.Run(opts); err != nil {
			t.Fatal(err)
		}
		if got := cp.Len() - before; step.add >= 0 && got != step.add {
			t.Errorf("%s committed %d new units after fig4, want %d", step.id, got, step.add)
		}
	}
}

// TestXRelatedStackDistInvariant: xrelated's tables are identical
// whether its LRU shapes come from the stack-distance profile (Extra 0
// by construction) or from dedicated replays.
func TestXRelatedStackDistInvariant(t *testing.T) {
	run := func(disable bool) []*Table {
		opts := tinyPlanOpts()
		opts.DisableStackDist = disable
		tables, err := runXRelated(opts)
		if err != nil {
			t.Fatal(err)
		}
		return tables
	}
	if a, b := run(false), run(true); !reflect.DeepEqual(a, b) {
		t.Errorf("xrelated differs with DisableStackDist:\n%s\n%s", a[0].Render(), b[0].Render())
	}
}

// TestReplayUnitExtra: execReplayUnit's Extra is the hits-only sum of
// ExtraLatency a direct replay observes — nonzero for the designs with
// a slow second probe, zero for the single-probe ones.
func TestReplayUnitExtra(t *testing.T) {
	opts := tinyPlanOpts()
	p := namedProfiles("equake")[0]
	related := map[string]Spec{}
	for _, s := range relatedSpecs() {
		related[s.Name] = s
	}
	cases := []struct {
		spec Spec
		zero bool
	}{
		{victimSpec(16), false},
		{related["column"], false},
		{related["psa"], false},
		{related["agac"], false},
		{related["pam4"], false},
		{setAssocSpec(4, energy.Way4), true},
		{bcacheSpec(8, 8, cache.LRU), true},
		{related["skewed2"], true},
		{related["hac32"], true},
	}
	dt, err := cachedData(opts, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.spec.Name, func(t *testing.T) {
			u, err := execReplayUnit(opts, dSide, p, tc.spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			c, err := tc.spec.New(opts.L1Size, opts.LineBytes)
			if err != nil {
				t.Fatal(err)
			}
			var want uint64
			for _, m := range dt.accs {
				if r := c.Access(m.Addr(), m.Write()); r.Hit {
					want += uint64(r.ExtraLatency)
				}
			}
			if u.Extra != want {
				t.Errorf("Extra = %d, direct replay sums %d", u.Extra, want)
			}
			if tc.zero != (want == 0) {
				t.Errorf("direct extra latency %d, want zero: %v", want, tc.zero)
			}
		})
	}
}
