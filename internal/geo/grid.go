package geo

import "math"

// Grid is a build-once uniform cell index over points, used for unit-disk
// neighbor queries when building AP graphs over hundreds of thousands of
// nodes. Cell size should be on the order of the query radius: a radius-r
// query then touches at most a 3x3 block of cells.
//
// The cells cover the points' bounding box as one dense array, cx-major:
// cell (cx, cy) has the ids ids[start[c]:start[c+1]] with
// c = (cx-minCX)*ny + (cy-minCY), in insertion order. A query's cells in
// one cx column are therefore one contiguous run of ids. Queries visit
// cells cx ascending, then cy ascending, then ids in insertion order; the
// simulator's event order depends on that order, so it is part of the
// contract. A Grid is immutable after NewGrid and safe for concurrent
// queries.
type Grid struct {
	cell    float64
	invCell float64
	pts     []Point
	bounds  Rect

	minCX, minCY float64
	nx, ny       int
	start        []int32
	ids          []int32
}

// maxGridCells caps a grid's cell array; see NewGrid.
const maxGridCells = 1 << 20

// NewGrid indexes pts with the given cell size; point i has id i in query
// results. The grid keeps pts, which the caller must not modify
// afterwards. Cell sizes that are zero or negative are replaced with 1.
// When the points are so spread out that the cells would outnumber both
// maxGridCells and four per point, the cell size doubles until they do
// not, so that a few far-flung points cannot blow up memory.
func NewGrid(cellSize float64, pts []Point) *Grid {
	if cellSize <= 0 {
		cellSize = 1
	}
	g := &Grid{pts: pts}
	hasPts := false
	for _, p := range pts {
		if !finite(p) {
			continue
		}
		if !hasPts {
			g.bounds = Rect{Min: p, Max: p}
			hasPts = true
		} else {
			g.bounds = g.bounds.ExpandToPoint(p)
		}
	}
	limit := float64(max(maxGridCells, 4*len(pts)))
	for {
		g.cell, g.invCell = cellSize, 1/cellSize
		g.minCX = math.Floor(g.bounds.Min.X * g.invCell)
		g.minCY = math.Floor(g.bounds.Min.Y * g.invCell)
		nx := math.Floor(g.bounds.Max.X*g.invCell) - g.minCX + 1
		ny := math.Floor(g.bounds.Max.Y*g.invCell) - g.minCY + 1
		if nx*ny <= limit {
			g.nx, g.ny = int(nx), int(ny)
			break
		}
		cellSize *= 2
	}
	if len(pts) == 0 {
		g.nx, g.ny = 0, 0
		return g
	}

	// Counting sort of the ids by cell: count, prefix-sum, then place each
	// id at its cell's cursor (which leaves start[c] at the end of cell c)
	// and shift the cursors back to the cell starts.
	g.start = make([]int32, g.nx*g.ny+1)
	g.ids = make([]int32, len(pts))
	for _, p := range pts {
		g.start[g.cellOf(p)+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	for i, p := range pts {
		c := g.cellOf(p)
		g.ids[g.start[c]] = int32(i)
		g.start[c]++
	}
	copy(g.start[1:], g.start[:len(g.start)-1])
	g.start[0] = 0
	return g
}

func finite(p Point) bool { return p.X-p.X == 0 && p.Y-p.Y == 0 }

// cellOf returns the dense cell index of p. Non-finite points, which no
// distance test ever matches, land in a clamped edge cell.
func (g *Grid) cellOf(p Point) int {
	cx := clampCell(math.Floor(p.X*g.invCell)-g.minCX, g.nx)
	cy := clampCell(math.Floor(p.Y*g.invCell)-g.minCY, g.ny)
	return cx*g.ny + cy
}

func clampCell(v float64, n int) int {
	if !(v >= 0) {
		return 0
	}
	if v >= float64(n) {
		return n - 1
	}
	return int(v)
}

// span returns the cell range [a, b] along one axis that covers the
// coordinates [lo, hi], clamped to the grid, and false when it is empty.
func (g *Grid) span(lo, hi, minC float64, n int) (int, int, bool) {
	a := math.Floor(lo*g.invCell) - minC
	b := math.Floor(hi*g.invCell) - minC
	if !(b >= 0 && a < float64(n) && a <= b) {
		return 0, 0, false
	}
	return clampCell(a, n), clampCell(b, n), true
}

// cells returns the cell ranges [x0, x1] and [y0, y1] covering the box
// [lo, hi], clamped to the grid, and false when the box misses the grid.
func (g *Grid) cells(lo, hi Point) (x0, x1, y0, y1 int, ok bool) {
	if x0, x1, ok = g.span(lo.X, hi.X, g.minCX, g.nx); !ok {
		return
	}
	y0, y1, ok = g.span(lo.Y, hi.Y, g.minCY, g.ny)
	return
}

// Len returns the number of points in the grid.
func (g *Grid) Len() int { return len(g.pts) }

// At returns the point with index id.
func (g *Grid) At(id int) Point { return g.pts[id] }

// Bounds returns the bounding box of all (finite) points.
func (g *Grid) Bounds() Rect { return g.bounds }

// WithinRadius calls fn with the index and location of every point within
// radius r of center (inclusive), in the grid's visit order. If fn returns
// false the query stops early.
func (g *Grid) WithinRadius(center Point, r float64, fn func(id int, p Point) bool) {
	if r < 0 {
		return
	}
	r2 := r * r
	x0, x1, y0, y1, ok := g.cells(Point{center.X - r, center.Y - r}, Point{center.X + r, center.Y + r})
	if !ok {
		return
	}
	for cx := x0; cx <= x1; cx++ {
		row := cx * g.ny
		for _, id := range g.ids[g.start[row+y0]:g.start[row+y1+1]] {
			p := g.pts[id]
			if p.Dist2(center) <= r2 {
				if !fn(int(id), p) {
					return
				}
			}
		}
	}
}

// InRect calls fn with the index and location of every point inside r
// (boundary inclusive), in the grid's visit order. If fn returns false the
// query stops early.
func (g *Grid) InRect(r Rect, fn func(id int, p Point) bool) {
	x0, x1, y0, y1, ok := g.cells(r.Min, r.Max)
	if !ok {
		return
	}
	for cx := x0; cx <= x1; cx++ {
		row := cx * g.ny
		for _, id := range g.ids[g.start[row+y0]:g.start[row+y1+1]] {
			p := g.pts[id]
			if r.Contains(p) {
				if !fn(int(id), p) {
					return
				}
			}
		}
	}
}

// Nearest returns the index of the point nearest to center and its distance;
// of equally near points it returns the first in visit order. It returns
// (-1, +Inf) when the grid is empty. maxRadius bounds the search; pass a
// non-positive value to search the whole grid.
func (g *Grid) Nearest(center Point, maxRadius float64) (int, float64) {
	if len(g.pts) == 0 {
		return -1, math.Inf(1)
	}
	limit := maxRadius
	if limit <= 0 {
		// Expand until the whole bounding box is covered.
		limit = math.Max(g.bounds.Width(), g.bounds.Height()) + g.cell
		if limit <= 0 {
			limit = g.cell
		}
	}
	bestID, bestD := -1, math.Inf(1)
	for r := g.cell; ; r *= 2 {
		g.WithinRadius(center, r, func(id int, p Point) bool {
			if d := p.Dist(center); d < bestD {
				bestID, bestD = id, d
			}
			return true
		})
		// A hit is only guaranteed nearest once the search radius exceeds
		// the best distance found so far.
		if bestID >= 0 && bestD <= r {
			return bestID, bestD
		}
		if r >= limit {
			return bestID, bestD
		}
	}
}
