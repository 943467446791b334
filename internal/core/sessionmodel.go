package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/power"
	"repro/internal/thermal"
)

// DefaultSTCScale normalises the raw session thermal characteristic
// (units W²·K/W = W·K) into the dimensionless 20–100 range the paper sweeps.
// With the default package and the Alpha 21364 workload, per-core raw STC
// terms fall roughly between 1e3 and 5.8e3 W·K, so dividing by 100 maps the
// interesting operating region onto STCL ∈ [20, 100] exactly as in Figure 5
// and Table 1.
const DefaultSTCScale = 100.0

// ErrCore is returned for invalid session-model queries.
var ErrCore = errors.New("core: invalid argument")

type lateralEdge struct {
	to int
	r  float64 // K/W
	g  float64 // 1/r, W/K — precomputed for the incremental session builder
}

// SessionModel is the paper's reduced test-session thermal model, built once
// per (floorplan, package, power profile) and then queried in O(degree) per
// core — no linear solves involved. It is immutable and safe for concurrent
// use.
type SessionModel struct {
	n     int
	scale float64
	power []float64       // per-core test power, W
	vert  []float64       // vertical resistance to thermal ground, K/W
	rim   []float64       // die-boundary path, K/W (+Inf for interior cores)
	lat   [][]lateralEdge // lateral resistances to neighbours
	names []string

	// Precomputed conductance sums for the O(degree) incremental session
	// builder: gBase is the always-grounded part (vertical + rim paths) and
	// latTotal the sum of all lateral conductances, so a core's equivalent
	// conductance in any session is gBase + latTotal − Σ active-neighbour g.
	gBase    []float64 // W/K
	latTotal []float64 // W/K
}

// NewSessionModel derives the reduced model from the full RC model and a
// power profile, so both views describe the same package. scale divides the
// raw STC; pass 0 for DefaultSTCScale.
func NewSessionModel(m *thermal.Model, prof *power.Profile, scale float64) (*SessionModel, error) {
	if m.Floorplan() != prof.Floorplan() {
		return nil, fmt.Errorf("%w: thermal model and power profile use different floorplans", ErrCore)
	}
	if scale == 0 {
		scale = DefaultSTCScale
	}
	if !(scale > 0) {
		return nil, fmt.Errorf("%w: STC scale %g must be > 0", ErrCore, scale)
	}
	n := m.NumBlocks()
	sm := &SessionModel{
		n:        n,
		scale:    scale,
		power:    make([]float64, n),
		vert:     make([]float64, n),
		rim:      make([]float64, n),
		lat:      make([][]lateralEdge, n),
		names:    m.Floorplan().Names(),
		gBase:    make([]float64, n),
		latTotal: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		sm.power[i] = prof.Test(i)
		sm.vert[i] = m.VerticalR(i)
		if r, ok := m.RimR(i); ok {
			sm.rim[i] = r
		} else {
			sm.rim[i] = math.Inf(1)
		}
		sm.gBase[i] = 1 / sm.vert[i]
		if !math.IsInf(sm.rim[i], 1) {
			sm.gBase[i] += 1 / sm.rim[i]
		}
		for _, nb := range m.Adjacency().Neighbors(i) {
			r, ok := m.LateralR(i, nb.Index)
			if !ok { // adjacency and LateralR come from the same graph
				return nil, fmt.Errorf("%w: inconsistent adjacency for cores %d,%d", ErrCore, i, nb.Index)
			}
			sm.lat[i] = append(sm.lat[i], lateralEdge{to: nb.Index, r: r, g: 1 / r})
			sm.latTotal[i] += 1 / r
		}
	}
	return sm, nil
}

// NumCores returns the number of cores in the model.
func (sm *SessionModel) NumCores() int { return sm.n }

// Scale returns the STC normalisation divisor.
func (sm *SessionModel) Scale() float64 { return sm.scale }

// EquivalentR returns Rth(i) with respect to the session described by the
// active mask: the parallel combination of core i's vertical path, its die
// boundary path, and the lateral paths to its *passive* neighbours. Lateral
// paths to active neighbours are omitted (the paper's modification 2);
// passive cores are treated as thermal ground (modification 3). Core i
// itself need not be marked active.
func (sm *SessionModel) EquivalentR(i int, active []bool) (float64, error) {
	if i < 0 || i >= sm.n {
		return 0, fmt.Errorf("%w: core %d out of range [0,%d)", ErrCore, i, sm.n)
	}
	if len(active) != sm.n {
		return 0, fmt.Errorf("%w: active mask has %d entries, want %d", ErrCore, len(active), sm.n)
	}
	g := 1 / sm.vert[i]
	if !math.IsInf(sm.rim[i], 1) {
		g += 1 / sm.rim[i]
	}
	for _, e := range sm.lat[i] {
		if !active[e.to] {
			g += 1 / e.r
		}
	}
	return 1 / g, nil
}

// TC returns the core thermal characteristic TC_TS(i) = P(i)·Rth(i) (K) for
// the session in the active mask.
func (sm *SessionModel) TC(i int, active []bool) (float64, error) {
	r, err := sm.EquivalentR(i, active)
	if err != nil {
		return 0, err
	}
	return sm.power[i] * r, nil
}

// SoloTC returns TC of core i in a session where it is the only active core
// — the value used for candidate ordering. gBase holds EquivalentR's first
// terms (vertical, then rim) summed in its order, and every lateral edge's g
// is its 1/r, so adding the edges in order gives a result bit-equal to
// TC(i, solo mask) without building the mask.
func (sm *SessionModel) SoloTC(i int) float64 {
	g := sm.gBase[i]
	for _, e := range sm.lat[i] {
		g += e.g
	}
	return sm.power[i] * (1 / g)
}

// STC evaluates the session thermal characteristic
//
//	STC(TS) = max_{Ci∈TS} TC_TS(i) · P(i) · W(i) / scale
//
// for the cores listed in session, with per-core weights (nil → all 1).
func (sm *SessionModel) STC(session []int, weights []float64) (float64, error) {
	if len(session) == 0 {
		return 0, nil
	}
	if weights != nil && len(weights) != sm.n {
		return 0, fmt.Errorf("%w: weights has %d entries, want %d", ErrCore, len(weights), sm.n)
	}
	active := make([]bool, sm.n)
	for _, c := range session {
		if c < 0 || c >= sm.n {
			return 0, fmt.Errorf("%w: core %d out of range [0,%d)", ErrCore, c, sm.n)
		}
		active[c] = true
	}
	var mx float64
	for _, c := range session {
		tc, err := sm.TC(c, active)
		if err != nil {
			return 0, err
		}
		w := 1.0
		if weights != nil {
			w = weights[c]
		}
		if term := tc * sm.power[c] * w / sm.scale; term > mx {
			mx = term
		}
	}
	return mx, nil
}

// CoreName returns core i's display name.
func (sm *SessionModel) CoreName(i int) string { return sm.names[i] }

// TestPower returns core i's test power (W).
func (sm *SessionModel) TestPower(i int) float64 { return sm.power[i] }
