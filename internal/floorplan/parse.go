package floorplan

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// ErrSyntax is wrapped by all parse failures.
var ErrSyntax = errors.New("floorplan: syntax error")

// Parse reads a floorplan in the HotSpot ".flp" text format:
//
//	# comment, blank lines ignored
//	<block-name> <width-m> <height-m> <left-x-m> <bottom-y-m> [extras...]
//
// Numeric extras after the first four (per-block material overrides in later
// HotSpot versions) are tolerated and ignored. The die outline defaults to the
// bounding box of the blocks. The result is fully validated (New).
func Parse(r io.Reader, name string) (*Floorplan, error) {
	sc := bufio.NewScanner(r)
	var blocks []Block
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("%w: line %d: want `name w h x y`, got %d fields", ErrSyntax, lineNo, len(fields))
		}
		var vals [4]float64
		for k := 0; k < 4; k++ {
			v, err := strconv.ParseFloat(fields[k+1], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: field %d: %v", ErrSyntax, lineNo, k+2, err)
			}
			vals[k] = v
		}
		blocks = append(blocks, Block{
			Name: fields[0],
			Rect: geom.Rect{W: vals[0], H: vals[1], X: vals[2], Y: vals[3]},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("floorplan: reading input: %w", err)
	}
	return New(name, geom.Rect{}, blocks)
}

// ParseString is Parse over an in-memory string.
func ParseString(s, name string) (*Floorplan, error) {
	return Parse(strings.NewReader(s), name)
}

// Write renders the floorplan in the ".flp" format accepted by Parse. Blocks
// appear in declaration order; the header records name, block count and die
// size as comments. Coordinates use Go's shortest round-trip formatting, so
// Parse(Format(fp)) reproduces every rectangle bit-exactly — which keeps the
// content address of a floorplan stable across a text round trip (the
// schedule service ships floorplans as ".flp" text and relies on this).
func Write(w io.Writer, fp *Floorplan) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# floorplan: %s\n", fp.Name())
	fmt.Fprintf(bw, "# blocks: %d, die: %g x %g m\n", fp.NumBlocks(), fp.Die().W, fp.Die().H)
	fmt.Fprintf(bw, "# format: <name> <width> <height> <left-x> <bottom-y>\n")
	for _, b := range fp.Blocks() {
		fmt.Fprintf(bw, "%s\t%g\t%g\t%g\t%g\n", b.Name, b.Rect.W, b.Rect.H, b.Rect.X, b.Rect.Y)
	}
	return bw.Flush()
}

// Format renders the floorplan to a string in ".flp" format.
func Format(fp *Floorplan) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = Write(&sb, fp)
	return sb.String()
}
