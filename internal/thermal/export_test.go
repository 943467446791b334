package thermal

import (
	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// RaceEnabled exposes raceEnabled to the external test package.
const RaceEnabled = raceEnabled

// GridFactorFill returns the factor non-zero count of the alpha21364 grid at
// nx×ny under the nested-dissection ordering, from the symbolic analysis
// alone: no numeric factorization.
func GridFactorFill(nx, ny int) (int, error) {
	fp := floorplan.Alpha21364()
	die := fp.Die()
	g := &GridModel{fp: fp, cfg: DefaultPackageConfig(), nx: nx, ny: ny,
		cellW: die.W / float64(nx), cellH: die.H / float64(ny)}
	sym, err := linalg.NewCholSymbolic(g.assemble(), g.ndPerm())
	if err != nil {
		return 0, err
	}
	return sym.LNNZ(), nil
}
