package experiment

import (
	"reflect"
	"testing"

	"bcache/internal/energy"
	"bcache/internal/workload"
)

// tinyPlanOpts is the smallest scale the campaign planner and scheduler
// both accept, with an in-memory checkpoint attached.
func tinyPlanOpts() Opts {
	opts := DefaultOpts()
	opts.Instructions = 60_000
	opts.Checkpoint = NewCheckpoint("")
	return opts
}

// TestMissRatesCheckpointsEveryProfiledSpec is the regression test for a
// bug where the profiling job built its checkpoint keys in the same loop
// that breaks on the first cache miss: on a fresh checkpoint the later
// LRU specs were recorded under the empty key, silently dropping them
// from resumes and desynchronizing the sequential checkpoint from the
// distributed plan's.
func TestMissRatesCheckpointsEveryProfiledSpec(t *testing.T) {
	opts := tinyPlanOpts()
	profiles := reportedICacheProfiles()[:1]
	all := append([]Spec{baselineSpec()}, figureSpecs()...)
	lru, _ := lruSpecIndices(opts, all)
	if len(lru) < 2 {
		t.Fatalf("test needs >= 2 profileable specs, have %d", len(lru))
	}
	if _, err := missRates(opts, profiles, figureSpecs(), iSide); err != nil {
		t.Fatal(err)
	}
	cp := opts.Checkpoint
	if _, ok := cp.Lookup(""); ok {
		t.Error("checkpoint holds a unit under the empty key")
	}
	for _, si := range lru {
		key := unitKey(opts, iSide, all[si].key(), 0, profiles[0].Name)
		if _, ok := cp.Lookup(key); !ok {
			t.Errorf("profiled spec %s not checkpointed (key %s)", all[si].Name, key)
		}
	}
	if want := len(all) * len(profiles); cp.Len() != want {
		t.Errorf("checkpoint holds %d units, want %d", cp.Len(), want)
	}
}

// TestPlanCoversSequentialCheckpoint: after a sequential run of each
// experiment that declares sweeps, every planned unit must be Done
// against its checkpoint and the checkpoint must hold exactly the
// planned keys — the Run functions and PlanCampaign read the same
// sweeps, which is what makes the distributed merge bit-identical.
func TestPlanCoversSequentialCheckpoint(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig5", "fig12", "table5", "table6", "xline", "xrelated"} {
		t.Run(id, func(t *testing.T) {
			opts := tinyPlanOpts()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			if e.Sweeps == nil {
				t.Fatalf("%s declares no sweeps", id)
			}
			if _, err := e.Run(opts); err != nil {
				t.Fatal(err)
			}
			planOpts := opts
			planOpts.Checkpoint = nil
			plan, err := PlanCampaign(planOpts, []string{id})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Len() == 0 {
				t.Fatalf("%s plan is empty", id)
			}
			keys := map[string]bool{}
			for i := 0; i < plan.Len(); i++ {
				if !plan.Done(i, opts.Checkpoint) {
					t.Errorf("planned unit %d (%s) missing from the sequential checkpoint", i, plan.Key(i))
				}
				for _, k := range plan.UnitKeys(i) {
					keys[k] = true
				}
			}
			if opts.Checkpoint.Len() != len(keys) {
				t.Errorf("checkpoint holds %d keys, plan enumerates %d — unit spaces differ",
					opts.Checkpoint.Len(), len(keys))
			}
		})
	}
}

// TestPlannedUnitLabels pins the telemetry labels and trace groups of a
// planned sweep: one profiling unit then the replay units per
// (profile, seed), all of that pair sharing one group.
func TestPlannedUnitLabels(t *testing.T) {
	opts := tinyPlanOpts()
	opts.Seeds = 2
	p := reportedICacheProfiles()[0]
	units := planMissRates(opts, []*workload.Profile{p}, []Spec{setAssocSpec(4, energy.Way4), victimSpec(16)}, dSide)
	want := []struct {
		label string
		group int
	}{
		{p.Name + "/lru-profile/seed0", 0},
		{p.Name + "/victim16/seed0", 0},
		{p.Name + "/lru-profile/seed1", 1},
		{p.Name + "/victim16/seed1", 1},
	}
	if len(units) != len(want) {
		t.Fatalf("planned %d units, want %d", len(units), len(want))
	}
	for i, w := range want {
		if got := units[i].label(); got != w.label || units[i].group != w.group {
			t.Errorf("unit %d: label %q group %d, want %q group %d", i, got, units[i].group, w.label, w.group)
		}
	}
}

// TestMissRatesStoreServesRepeats: without a checkpoint the units land
// in the process-level store, so an identical second call restores every
// unit from it and never asks the trace cache for a stream.
func TestMissRatesStoreServesRepeats(t *testing.T) {
	ResetUnitMemo()
	defer ResetUnitMemo()
	opts := tinyPlanOpts()
	opts.Checkpoint = nil
	profiles := reportedICacheProfiles()[:2]
	first, err := missRates(opts, profiles, figureSpecs(), dSide)
	if err != nil {
		t.Fatal(err)
	}
	before := TraceCacheStats()
	second, err := missRates(opts, profiles, figureSpecs(), dSide)
	if err != nil {
		t.Fatal(err)
	}
	if after := TraceCacheStats(); after != before {
		t.Errorf("repeat call touched the trace cache: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeat call differs:\n got %+v\nwant %+v", second, first)
	}
}
