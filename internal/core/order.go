package core

import (
	"fmt"
	"sort"

	"repro/internal/testspec"
)

// OrderPolicy selects the candidate order in which the generator scans the
// unscheduled cores when filling a session (the paper's pseudocode iterates
// "FOR EACH Ci ∈ A" without fixing an order; the choice is an engineering
// degree of freedom and is ablated in the experiments).
type OrderPolicy int

const (
	// OrderByTCDesc scans thermally hardest cores first (descending solo
	// TC = P·Rth). Hard cores seed sessions and easy cores fill around
	// them. This is the default.
	OrderByTCDesc OrderPolicy = iota
	// OrderByDensityDesc scans by descending test power density.
	OrderByDensityDesc
	// OrderByPowerDesc scans by descending test power.
	OrderByPowerDesc
	// OrderByAreaAsc scans smallest cores first.
	OrderByAreaAsc
	// OrderInput scans in floorplan declaration order.
	OrderInput
)

// String implements fmt.Stringer.
func (o OrderPolicy) String() string {
	switch o {
	case OrderByTCDesc:
		return "tc-desc"
	case OrderByDensityDesc:
		return "density-desc"
	case OrderByPowerDesc:
		return "power-desc"
	case OrderByAreaAsc:
		return "area-asc"
	case OrderInput:
		return "input"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// OrderPolicies lists every policy, for ablation sweeps.
func OrderPolicies() []OrderPolicy {
	return []OrderPolicy{OrderByTCDesc, OrderByDensityDesc, OrderByPowerDesc, OrderByAreaAsc, OrderInput}
}

// candidateOrder returns core indices sorted by the policy, with ascending
// index as the deterministic tie-break. Each key is evaluated once, up front.
func candidateOrder(policy OrderPolicy, spec *testspec.Spec, sm *SessionModel) ([]int, error) {
	n := spec.NumCores()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var key func(i int) float64
	switch policy {
	case OrderByTCDesc:
		key = func(i int) float64 { return -sm.SoloTC(i) }
	case OrderByDensityDesc:
		key = func(i int) float64 { return -spec.Profile().TestDensity(i) }
	case OrderByPowerDesc:
		key = func(i int) float64 { return -spec.Test(i).Power }
	case OrderByAreaAsc:
		key = func(i int) float64 { return spec.Floorplan().Block(i).Area() }
	case OrderInput:
		return idx, nil
	default:
		return nil, fmt.Errorf("%w: unknown order policy %d", ErrCore, int(policy))
	}
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = key(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka != kb {
			return ka < kb
		}
		return idx[a] < idx[b]
	})
	return idx, nil
}
