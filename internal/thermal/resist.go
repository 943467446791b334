package thermal

import "repro/internal/geom"

// This file exposes the *component* thermal resistances of the RC network.
// The DATE'05 test-session thermal model (internal/core) is built from
// exactly these quantities, so the cheap guiding model and the full
// simulation oracle are guaranteed to describe the same physical package.

// LateralR returns the silicon lateral thermal resistance between adjacent
// blocks i and j (K/W) and true, or (0, false) when the blocks do not share
// an edge. The resistance follows the conduction formula R = L/(k·A) with the
// centre-to-centre path length L and the cross-section A = die thickness ×
// shared edge length.
func (m *Model) LateralR(i, j int) (float64, bool) {
	for _, nb := range m.adj.Neighbors(i) {
		if nb.Index == j {
			return nb.PathLen / (m.cfg.KSilicon * m.cfg.DieThickness * nb.SharedLen), true
		}
	}
	return 0, false
}

// VerticalR returns the vertical thermal resistance of block i's private
// path toward the heat sink (K/W): half the die, the TIM, the full spreader
// thickness and half the sink base, all over the block's own footprint. The
// chip-wide convection resistance is deliberately excluded — it is common to
// every core and therefore carries no information for ranking cores within a
// session (the session model treats the sink as thermal ground).
func (m *Model) VerticalR(i int) float64 {
	area := m.fp.Block(i).Area()
	return m.cfg.DieThickness/(2*m.cfg.KSilicon*area) +
		m.cfg.TIMThickness/(m.cfg.KTIM*area) +
		m.cfg.SpreaderThickness/(m.cfg.KSpreader*area) +
		m.cfg.SinkThickness/(2*m.cfg.KSink*area)
}

// RimR returns the lateral thermal resistance from block i to the die
// boundary / spreader rim (K/W) and true, or (0, false) for interior blocks
// or when the spreader does not overhang the die. Contacts on several die
// edges combine in parallel. This realises the R_{i,N}/R_{i,S}/... ground
// paths of the paper's Figure 3 for boundary cores.
func (m *Model) RimR(i int) (float64, bool) {
	var gSum float64
	blk := m.fp.Block(i)
	for _, rc := range m.adj.Rim(i) {
		overhang := m.overhang(rc.Side)
		if overhang <= geom.Eps {
			continue
		}
		// Series: silicon path from the block centre to the die edge, then
		// the spreader path into the rim.
		rSi := m.distToDieEdge(blk.Rect, rc.Side) / (m.cfg.KSilicon * m.cfg.DieThickness * rc.Len)
		rSp := (overhang / 2) / (m.cfg.KSpreader * m.cfg.SpreaderThickness * rc.Len)
		gSum += 1 / (rSi + rSp)
	}
	if gSum <= 0 {
		return 0, false
	}
	return 1 / gSum, true
}
