// Package floorplan models the physical layout of a system-on-chip at core
// (block) granularity: named rectangular blocks placed on a die outline.
//
// The package provides the floorplan services the thermal-aware test
// scheduler depends on:
//
//   - construction and validation (no overlaps, blocks inside the die);
//   - the HotSpot ".flp" text format (parse and render);
//   - the adjacency graph annotated with shared-edge lengths and
//     conduction path lengths, which downstream packages turn into lateral
//     thermal resistances;
//   - built-in floorplans used by the DATE'05 evaluation: a reconstruction
//     of the 15-core Compaq Alpha 21364 layout and the 7-core hypothetical
//     SoC of the paper's Figure 1;
//   - a seeded random floorplan generator (slicing tree) for property tests
//     and scaling benchmarks.
//
// All geometry is in metres.
package floorplan

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/geom"
)

// Common validation errors.
var (
	ErrEmpty         = errors.New("floorplan: no blocks")
	ErrDuplicateName = errors.New("floorplan: duplicate block name")
	ErrInvalidBlock  = errors.New("floorplan: invalid block geometry")
	ErrOverlap       = errors.New("floorplan: blocks overlap")
	ErrOutOfDie      = errors.New("floorplan: block outside die outline")
	ErrUnknownBlock  = errors.New("floorplan: unknown block")
)

// Block is a named rectangular core on the die.
type Block struct {
	Name string
	Rect geom.Rect
}

// Area returns the block area in m².
func (b Block) Area() float64 { return b.Rect.Area() }

// String implements fmt.Stringer.
func (b Block) String() string {
	return fmt.Sprintf("%s %s", b.Name, b.Rect)
}

// Floorplan is an immutable, validated collection of blocks on a die.
// Construct with New (or the parser); the zero value is not usable.
type Floorplan struct {
	name   string
	die    geom.Rect
	blocks []Block
	index  map[string]int
}

// New validates and builds a floorplan. When die is the zero rectangle the
// die outline defaults to the bounding box of the blocks. Block names must be
// unique and non-empty, rectangles must be valid, pairwise non-overlapping
// and contained in the die.
func New(name string, die geom.Rect, blocks []Block) (*Floorplan, error) {
	if len(blocks) == 0 {
		return nil, ErrEmpty
	}
	if die == (geom.Rect{}) {
		die = blocks[0].Rect
		for _, b := range blocks[1:] {
			die = die.Union(b.Rect)
		}
	}
	index := make(map[string]int, len(blocks))
	own := make([]Block, len(blocks))
	copy(own, blocks)
	for i, b := range own {
		if b.Name == "" {
			return nil, fmt.Errorf("%w: block %d has empty name", ErrInvalidBlock, i)
		}
		if !b.Rect.Valid() {
			return nil, fmt.Errorf("%w: block %q has rect %v", ErrInvalidBlock, b.Name, b.Rect)
		}
		if _, dup := index[b.Name]; dup {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateName, b.Name)
		}
		if !die.ContainsRect(b.Rect) {
			return nil, fmt.Errorf("%w: block %q %v vs die %v", ErrOutOfDie, b.Name, b.Rect, die)
		}
		index[b.Name] = i
	}
	rects := make([]geom.Rect, len(own))
	for i, b := range own {
		rects[i] = b.Rect
	}
	if i, j := geom.AnyOverlap(rects); i >= 0 {
		return nil, fmt.Errorf("%w: %q and %q", ErrOverlap, own[i].Name, own[j].Name)
	}
	return &Floorplan{name: name, die: die, blocks: own, index: index}, nil
}

// Name returns the floorplan's display name.
func (fp *Floorplan) Name() string { return fp.name }

// Die returns the die outline rectangle.
func (fp *Floorplan) Die() geom.Rect { return fp.die }

// NumBlocks returns the number of blocks.
func (fp *Floorplan) NumBlocks() int { return len(fp.blocks) }

// Blocks returns a copy of the block list in declaration order.
func (fp *Floorplan) Blocks() []Block {
	out := make([]Block, len(fp.blocks))
	copy(out, fp.blocks)
	return out
}

// Block returns the block with index i; it panics on a bad index because
// indices originate from this floorplan.
func (fp *Floorplan) Block(i int) Block { return fp.blocks[i] }

// IndexOf returns the index of the named block.
func (fp *Floorplan) IndexOf(name string) (int, error) {
	i, ok := fp.index[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownBlock, name)
	}
	return i, nil
}

// TotalBlockArea returns the summed block area (m²).
func (fp *Floorplan) TotalBlockArea() float64 {
	var sum float64
	for _, b := range fp.blocks {
		sum += b.Area()
	}
	return sum
}

// Coverage returns block area divided by die area (1.0 for a full tiling).
func (fp *Floorplan) Coverage() float64 {
	da := fp.die.Area()
	if da <= 0 {
		return 0
	}
	return fp.TotalBlockArea() / da
}

// IsFullTiling reports whether the blocks tile the die exactly (no gaps, no
// overlaps) within a relative area tolerance of 1e-6.
func (fp *Floorplan) IsFullTiling() bool {
	rects := make([]geom.Rect, len(fp.blocks))
	for i, b := range fp.blocks {
		rects[i] = b.Rect
	}
	return geom.IsTiling(rects, fp.die, 1e-6)
}

// String returns a short human-readable summary.
func (fp *Floorplan) String() string {
	return fmt.Sprintf("Floorplan %q: %d blocks, die %.1f×%.1f mm",
		fp.name, len(fp.blocks), fp.die.W*1e3, fp.die.H*1e3)
}

// Describe renders a multi-line inspection report: per-block geometry plus
// aggregate statistics, sorted by block area descending.
func (fp *Floorplan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", fp.String())
	type row struct {
		name string
		area float64
		r    geom.Rect
	}
	rows := make([]row, 0, len(fp.blocks))
	for _, b := range fp.blocks {
		rows = append(rows, row{b.Name, b.Area(), b.Rect})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].area != rows[j].area {
			return rows[i].area > rows[j].area
		}
		return rows[i].name < rows[j].name
	})
	fmt.Fprintf(&sb, "%-12s %10s %10s %10s %10s %10s\n",
		"block", "w(mm)", "h(mm)", "x(mm)", "y(mm)", "area(mm²)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			r.name, r.r.W*1e3, r.r.H*1e3, r.r.X*1e3, r.r.Y*1e3, r.area*1e6)
	}
	fmt.Fprintf(&sb, "coverage: %.1f%%  total block area: %.1f mm²\n",
		fp.Coverage()*100, fp.TotalBlockArea()*1e6)
	return sb.String()
}
