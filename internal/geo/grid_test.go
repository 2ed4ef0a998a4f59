package geo

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestGridBuildAndAt(t *testing.T) {
	g := NewGrid(10, []Point{Pt(1, 1), Pt(50, 50), Pt(-30, 20)})
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if g.At(1) != Pt(50, 50) {
		t.Errorf("At(1) = %v", g.At(1))
	}
	b := g.Bounds()
	if b.Min != Pt(-30, 1) || b.Max != Pt(50, 50) {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestGridWithinRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	g := NewGrid(25, pts)
	for trial := 0; trial < 50; trial++ {
		c := Pt(rng.Float64()*1000, rng.Float64()*1000)
		r := rng.Float64() * 120
		var got []int
		g.WithinRadius(c, r, func(id int, _ Point) bool {
			got = append(got, id)
			return true
		})
		var want []int
		for i, p := range pts {
			if p.Dist(c) <= r {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestGridWithinRadiusEarlyStop(t *testing.T) {
	var pts []Point
	for i := 0; i < 100; i++ {
		pts = append(pts, Pt(float64(i%10), float64(i/10)))
	}
	g := NewGrid(10, pts)
	n := 0
	g.WithinRadius(Pt(5, 5), 100, func(int, Point) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d, want 5", n)
	}
}

func TestGridInRect(t *testing.T) {
	var pts []Point
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			pts = append(pts, Pt(float64(x)*10, float64(y)*10))
		}
	}
	g := NewGrid(10, pts)
	count := 0
	g.InRect(Rect{Min: Pt(15, 15), Max: Pt(45, 45)}, func(int, Point) bool {
		count++
		return true
	})
	if count != 9 { // x,y in {20,30,40}
		t.Errorf("InRect count = %d, want 9", count)
	}
}

func TestGridNearest(t *testing.T) {
	if id, d := NewGrid(10, nil).Nearest(Pt(0, 0), 0); id != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty Nearest = %d, %v", id, d)
	}
	g := NewGrid(10, []Point{Pt(0, 0), Pt(100, 0), Pt(51, 0)})
	id, d := g.Nearest(Pt(60, 0), 0)
	if id != 2 || !almostEq(d, 9, 1e-12) {
		t.Errorf("Nearest = %d, %v; want 2, 9", id, d)
	}
	// With a tight maxRadius, a far query may find nothing.
	id, _ = g.Nearest(Pt(1000, 1000), 5)
	if id != -1 {
		t.Errorf("bounded Nearest = %d, want -1", id)
	}
}

func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
	}
	g := NewGrid(30, pts)
	for trial := 0; trial < 40; trial++ {
		c := Pt(rng.Float64()*2500-1250, rng.Float64()*2500-1250)
		gotID, gotD := g.Nearest(c, 0)
		wantD := math.Inf(1)
		for _, p := range pts {
			if d := p.Dist(c); d < wantD {
				wantD = d
			}
		}
		if gotID < 0 || !almostEq(gotD, wantD, 1e-9) {
			t.Fatalf("trial %d: Nearest d=%v, brute force d=%v", trial, gotD, wantD)
		}
	}
}

func TestGridZeroCellSize(t *testing.T) {
	g := NewGrid(0, []Point{Pt(0.5, 0.5)})
	found := false
	g.WithinRadius(Pt(0, 0), 1, func(int, Point) bool { found = true; return true })
	if !found {
		t.Error("grid with clamped cell size should still work")
	}
}

// refGrid is the hash-map grid the dense grid replaced, kept as the
// reference for visit order: cells cx ascending, then cy ascending, then
// points in insertion order.
type refGrid struct {
	invCell float64
	pts     []Point
	cells   map[[2]int][]int
}

func newRefGrid(cell float64, pts []Point) *refGrid {
	r := &refGrid{invCell: 1 / cell, pts: pts, cells: map[[2]int][]int{}}
	for i, p := range pts {
		k := r.key(p)
		r.cells[k] = append(r.cells[k], i)
	}
	return r
}

func (r *refGrid) key(p Point) [2]int {
	return [2]int{int(math.Floor(p.X * r.invCell)), int(math.Floor(p.Y * r.invCell))}
}

// visit returns the ids in the cells covering [lo, hi] that keep says to,
// in visit order.
func (r *refGrid) visit(lo, hi Point, keep func(Point) bool) []int {
	var out []int
	a, b := r.key(lo), r.key(hi)
	for cx := a[0]; cx <= b[0]; cx++ {
		for cy := a[1]; cy <= b[1]; cy++ {
			for _, id := range r.cells[[2]int{cx, cy}] {
				if keep(r.pts[id]) {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

func collect(query func(func(int, Point) bool)) []int {
	var out []int
	query(func(id int, _ Point) bool {
		out = append(out, id)
		return true
	})
	return out
}

// gridCase is a point set with negative coordinates and duplicate points.
func gridCase(seed int64, n int) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, 0, n+n/10)
	for i := 0; i < n; i++ {
		pts = append(pts, Pt(rng.Float64()*600-400, rng.Float64()*400-300))
	}
	for i := 0; i < n/10; i++ {
		pts = append(pts, pts[rng.Intn(n)])
	}
	return pts
}

func TestGridQueriesMatchReferenceVisitOrder(t *testing.T) {
	const cell = 20
	pts := gridCase(5, 400)
	g, ref := NewGrid(cell, pts), newRefGrid(cell, pts)
	rng := rand.New(rand.NewSource(6))
	radii := []float64{0, cell / 2, cell, 3 * cell, 25 * cell}
	for trial := 0; trial < 200; trial++ {
		// Centers reach well past the bounds, so some queries miss the
		// grid entirely and many overlap it only in part.
		c := Pt(rng.Float64()*1600-1000, rng.Float64()*1400-900)
		if trial%10 == 0 {
			c = pts[rng.Intn(len(pts))] // on a (possibly duplicated) point
		}
		r := radii[trial%len(radii)]
		got := collect(func(fn func(int, Point) bool) { g.WithinRadius(c, r, fn) })
		want := ref.visit(Pt(c.X-r, c.Y-r), Pt(c.X+r, c.Y+r), func(p Point) bool { return p.Dist2(c) <= r*r })
		if !slices.Equal(got, want) {
			t.Fatalf("WithinRadius(%v, %v) = %v, reference order %v", c, r, got, want)
		}
		var brute []int
		for i, p := range pts {
			if p.Dist2(c) <= r*r {
				brute = append(brute, i)
			}
		}
		sort.Ints(got)
		if !slices.Equal(got, brute) {
			t.Fatalf("WithinRadius(%v, %v) = %v, brute force %v", c, r, got, brute)
		}

		rect := RectFromPoints(c, Pt(c.X+rng.Float64()*r*2, c.Y-rng.Float64()*r*2))
		got = collect(func(fn func(int, Point) bool) { g.InRect(rect, fn) })
		want = ref.visit(rect.Min, rect.Max, rect.Contains)
		if !slices.Equal(got, want) {
			t.Fatalf("InRect(%+v) = %v, reference order %v", rect, got, want)
		}
		brute = brute[:0]
		for i, p := range pts {
			if rect.Contains(p) {
				brute = append(brute, i)
			}
		}
		sort.Ints(got)
		if !slices.Equal(got, brute) {
			t.Fatalf("InRect(%+v) = %v, brute force %v", rect, got, brute)
		}

		// Nearest returns the first of the equally nearest points in visit
		// order, so duplicates resolve to the reference's pick.
		id, d := g.Nearest(c, 0)
		bestD := math.Inf(1)
		for _, p := range pts {
			bestD = math.Min(bestD, p.Dist(c))
		}
		if id < 0 && bestD > 600 {
			continue // beyond the whole-grid search limit, max(width, height)
		}
		if id < 0 || d != bestD || pts[id].Dist(c) != d {
			t.Fatalf("Nearest(%v) = %d at %v, brute force %v", c, id, d, bestD)
		}
		bounds := g.Bounds()
		if first := ref.visit(bounds.Min, bounds.Max, func(p Point) bool { return p.Dist(c) == bestD }); id != first[0] {
			t.Fatalf("Nearest(%v) = %d, first equally near in visit order is %d", c, id, first[0])
		}
	}
}

func TestGridEmpty(t *testing.T) {
	for _, pts := range [][]Point{nil, {}} {
		g := NewGrid(10, pts)
		if got := collect(func(fn func(int, Point) bool) { g.WithinRadius(Pt(0, 0), 1e9, fn) }); got != nil {
			t.Errorf("empty WithinRadius = %v", got)
		}
		if got := collect(func(fn func(int, Point) bool) { g.InRect(RectFromPoints(Pt(-1e9, -1e9), Pt(1e9, 1e9)), fn) }); got != nil {
			t.Errorf("empty InRect = %v", got)
		}
		if id, d := g.Nearest(Pt(3, 4), 100); id != -1 || !math.IsInf(d, 1) {
			t.Errorf("empty Nearest = %d, %v", id, d)
		}
		if g.Len() != 0 || g.Bounds() != (Rect{}) {
			t.Errorf("empty Len/Bounds = %d, %+v", g.Len(), g.Bounds())
		}
	}
}

func TestGridFarFlungPointsCapCells(t *testing.T) {
	// At a 1 m cell these points would span 10^14 cells; the grid widens
	// its cells instead and still answers exactly.
	pts := []Point{Pt(0, 0), Pt(1e7, 1e7), Pt(-1e7, 3), Pt(5, 5), Pt(5, 5)}
	g := NewGrid(1, pts)
	if cells := g.nx * g.ny; g.cell == 1 || cells > maxGridCells {
		t.Fatalf("cell %v m, %d cells; want a wider cell and at most %d cells", g.cell, cells, maxGridCells)
	}
	for _, c := range pts {
		for _, r := range []float64{0, 10, 2e7, 1e8} {
			got := collect(func(fn func(int, Point) bool) { g.WithinRadius(c, r, fn) })
			var want []int
			for i, p := range pts {
				if p.Dist2(c) <= r*r {
					want = append(want, i)
				}
			}
			sort.Ints(got)
			if !slices.Equal(got, want) {
				t.Fatalf("WithinRadius(%v, %v) = %v, want %v", c, r, got, want)
			}
		}
	}
	if id, d := g.Nearest(Pt(1e7-3, 1e7+4), 0); id != 1 || d != 5 {
		t.Errorf("Nearest = %d, %v; want 1, 5", id, d)
	}
}

func BenchmarkGridWithinRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 100000)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*10000, rng.Float64()*10000)
	}
	g := NewGrid(50, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Pt(rng.Float64()*10000, rng.Float64()*10000)
		n := 0
		g.WithinRadius(c, 50, func(int, Point) bool { n++; return true })
	}
}
