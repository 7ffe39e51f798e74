// Package experiment reproduces every table and figure of the paper's
// evaluation: miss-rate reductions (Figures 4, 5, 12), the MF sweep
// (Figure 3), IPC (Figure 8), energy (Figure 9), decoder timing
// (Table 1), storage (Table 2), energy per access (Table 3), the MF/BAS
// design-space (Tables 5 and 6), and the set-balance analysis (Table 7).
//
// Each experiment is registered under the paper artifact's ID and
// produces one or more text tables; cmd/experiments is the CLI driver and
// EXPERIMENTS.md records paper-vs-measured values.
package experiment

import (
	"fmt"
	"sort"
)

// Experiment reproduces one paper artifact.
type Experiment struct {
	// ID is the short name used by cmd/experiments -run and bench_test.go.
	ID string
	// Title names the paper artifact.
	Title string
	// Run executes the experiment at the given scale.
	Run func(Opts) ([]*Table, error)
	// Sweeps, when non-nil, declares the miss-rate sweeps Run measures
	// and renders from; PlanCampaign plans their units for distribution
	// (see plan.go).
	Sweeps func(Opts) []sweep
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiment: duplicate id %q", e.ID))
	}
	registry[e.ID] = e
}

// All returns the registered experiments sorted by ID (figures first,
// then tables, each numerically).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return lessID(out[i].ID, out[j].ID) })
	return out
}

// lessID orders "fig3" < "fig12" and figures before tables.
func lessID(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

func splitID(id string) (prefix string, n int) {
	i := 0
	for i < len(id) && (id[i] < '0' || id[i] > '9') {
		i++
	}
	prefix = id[:i]
	for _, c := range id[i:] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return prefix, n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for k := range registry {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, ids)
	}
	return e, nil
}
