// Package mesh realizes the physical AP layer of a city: it places Wi-Fi
// access points inside building footprints at a configurable density,
// connects APs whose distance is below the transmission range into the AP
// graph (the simulator's ground truth, §4), and answers reachability
// queries (union-find) and minimum-transmission-count queries (BFS).
//
// The AP graph is *never* consulted by CityMesh routing — the building
// graph predicts connectivity from the map alone — but the evaluation uses
// it to measure how well the prediction holds.
package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// Config parameterizes AP placement and connectivity.
type Config struct {
	// Density is the AP density inside building footprints, in APs per
	// square meter. The paper's evaluation uses 1 AP per 200 m².
	Density float64
	// Range is the symmetric transmission range cutoff in meters (50 m in
	// the paper).
	Range float64
	// Seed drives the deterministic placement RNG.
	Seed int64
	// MinPerBuilding floors the AP count of any building large enough to
	// count at all; the paper's premise is that occupied buildings host at
	// least one AP.
	MinPerBuilding int
}

// DefaultConfig matches the paper: 1 AP / 200 m², 50 m range.
func DefaultConfig() Config {
	return Config{Density: 1.0 / 200.0, Range: 50, Seed: 1, MinPerBuilding: 1}
}

// AP is one placed access point.
type AP struct {
	ID       int
	Pos      geo.Point
	Building int // dense building index
}

// Mesh is the realized AP network of a city.
type Mesh struct {
	City *osm.City
	Cfg  Config
	APs  []AP

	grid *geo.Grid
	// byBuilding lists AP ids per building.
	byBuilding [][]int32
	uf         *unionFind
	adj        CSR
	// bfs pools MinTransmissions' per-call scratch, so concurrent callers
	// each take their own and a warm call allocates nothing.
	bfs sync.Pool
}

// CSR is the AP graph in compressed sparse row form: the neighbours of AP
// v are Nbr[Off[v]:Off[v+1]], in the grid's visit order. It is built once
// and read-only afterwards.
type CSR struct {
	Off []int32
	Nbr []int32
}

// Neighbors returns the neighbours of AP v. The slice aliases the CSR and
// must not be modified.
func (c CSR) Neighbors(v int) []int32 { return c.Nbr[c.Off[v]:c.Off[v+1]] }

// Place samples AP locations inside every building footprint via rejection
// sampling in the footprint's bounding box. The expected AP count of a
// building is its area times the density, floored at MinPerBuilding.
func Place(city *osm.City, cfg Config) *Mesh {
	if cfg.Density <= 0 {
		cfg.Density = 1.0 / 200.0
	}
	if cfg.Range <= 0 {
		cfg.Range = 50
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Mesh{
		City:       city,
		Cfg:        cfg,
		byBuilding: make([][]int32, len(city.Buildings)),
	}
	// A building gets at most max(floor(area*density)+1, MinPerBuilding)
	// APs; reserving that bound spares copying APs at every append step.
	bound := 0
	for _, b := range city.Buildings {
		bound += max(int(b.Footprint.Area()*cfg.Density)+1, cfg.MinPerBuilding)
	}
	m.APs = make([]AP, 0, bound)
	for bi, b := range city.Buildings {
		area := b.Footprint.Area()
		n := int(math.Floor(area*cfg.Density + rng.Float64()))
		if n < cfg.MinPerBuilding {
			n = cfg.MinPerBuilding
		}
		bounds := b.Footprint.Bounds()
		for k := 0; k < n; k++ {
			p, ok := samplePoint(rng, b.Footprint, bounds)
			if !ok {
				continue
			}
			id := len(m.APs)
			m.APs = append(m.APs, AP{ID: id, Pos: p, Building: bi})
			m.byBuilding[bi] = append(m.byBuilding[bi], int32(id))
		}
	}
	m.link()
	return m
}

// samplePoint rejection-samples a point inside pg; it gives up after a
// bounded number of attempts for degenerate footprints.
func samplePoint(rng *rand.Rand, pg geo.Polygon, bounds geo.Rect) (geo.Point, bool) {
	for try := 0; try < 64; try++ {
		p := geo.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height(),
		)
		if pg.Contains(p) {
			return p, true
		}
	}
	// Degenerate (zero-area) footprint: fall back to its centroid.
	c := pg.Centroid()
	if len(pg) > 0 {
		return c, true
	}
	return geo.Point{}, false
}

// NumAPs returns the number of placed APs.
func (m *Mesh) NumAPs() int { return len(m.APs) }

// Grid exposes the spatial index over AP positions for range queries beyond
// the transmission radius (e.g. the measurement study's beacon detection).
func (m *Mesh) Grid() *geo.Grid { return m.grid }

// APsInBuilding returns the AP ids hosted by the given building.
func (m *Mesh) APsInBuilding(b int) []int32 { return m.byBuilding[b] }

// Neighbors calls fn for every AP within transmission range of AP id
// (excluding itself), in the grid's visit order.
func (m *Mesh) Neighbors(id int, fn func(other int)) {
	for _, j := range m.adj.Neighbors(id) {
		fn(int(j))
	}
}

// Adjacency returns the AP graph. It is built with the mesh and shared by
// every caller, so it must not be modified.
func (m *Mesh) Adjacency() CSR { return m.adj }

// NumLinks returns the number of undirected AP-AP links.
func (m *Mesh) NumLinks() int { return len(m.adj.Nbr) / 2 }

// link indexes the AP positions in a grid and builds, in one neighbour
// pass, both the CSR adjacency and the union-find. Pairs are met in the
// grid's visit order, which fixes both the neighbour order and the
// union-find's roots.
func (m *Mesh) link() {
	pos := make([]geo.Point, len(m.APs))
	for i, ap := range m.APs {
		pos[i] = ap.Pos
	}
	m.grid = geo.NewGrid(m.Cfg.Range, pos)
	m.uf = newUnionFind(len(pos))
	off := make([]int32, len(pos)+1)
	var nbr []int32
	for i, p := range pos {
		m.grid.WithinRadius(p, m.Cfg.Range, func(j int, _ geo.Point) bool {
			if j != i {
				if len(nbr) == cap(nbr) {
					// Reserve the mean degree so far times the APs left:
					// a few copies of the array instead of one per 1.25x
					// append step, which for a metro is 5x the final size.
					nbr = slices.Grow(nbr, len(nbr)*(len(pos)-i)/(i+1)+len(pos)/16+16)
				}
				nbr = append(nbr, int32(j))
				if j > i {
					m.uf.union(i, j)
				}
			}
			return true
		})
		off[i+1] = int32(len(nbr))
	}
	m.adj = CSR{Off: off, Nbr: nbr}
	// Flatten every parent chain now so find() is a pure read afterwards.
	// Path compression during queries would be a write race once parallel
	// sweeps call Reachable concurrently.
	m.uf.flatten()
}

// Reachable reports whether any AP in building a can reach any AP in
// building b across the AP graph. This is the paper's Figure 6
// "reachability" metric.
func (m *Mesh) Reachable(a, b int) bool {
	if a < 0 || b < 0 || a >= len(m.byBuilding) || b >= len(m.byBuilding) {
		return false
	}
	for _, x := range m.byBuilding[a] {
		for _, y := range m.byBuilding[b] {
			if m.uf.find(int(x)) == m.uf.find(int(y)) {
				return true
			}
		}
	}
	return false
}

// ComponentOf returns the AP-graph component id of AP id.
func (m *Mesh) ComponentOf(id int) int { return m.uf.find(id) }

// ErrUnreachable is returned by MinTransmissions when no AP path exists.
var ErrUnreachable = fmt.Errorf("mesh: destination unreachable in AP graph")

// MinTransmissions returns the minimum number of broadcasts needed to carry
// a packet from any AP in building src to any AP in building dst: the BFS
// hop count from the source AP set to the destination AP set. It is the
// denominator of the paper's transmission-overhead metric ("the absolute
// best case").
func (m *Mesh) MinTransmissions(src, dst int) (int, error) {
	if src == dst {
		return 0, nil
	}
	if src < 0 || dst < 0 || src >= len(m.byBuilding) || dst >= len(m.byBuilding) {
		return 0, fmt.Errorf("mesh: building out of range")
	}
	s, _ := m.bfs.Get().(*bfsScratch)
	if s == nil || len(s.seen) != len(m.APs) {
		s = &bfsScratch{seen: make([]uint32, len(m.APs)), queue: make([]int32, 0, len(m.APs))}
	}
	defer m.bfs.Put(s)
	s.epoch++
	if s.epoch == 0 {
		clear(s.seen)
		s.epoch = 1
	}
	q := s.queue[:0]
	for _, a := range m.byBuilding[src] {
		s.seen[a] = s.epoch
		q = append(q, a)
	}
	// Level-synchronous BFS: every AP queued in the pass that ends at end
	// is hops-1 broadcasts from src, so its unseen neighbours are hops.
	for head, hops := 0, 1; head < len(q); hops++ {
		for end := len(q); head < end; head++ {
			for _, w := range m.adj.Neighbors(int(q[head])) {
				if s.seen[w] == s.epoch {
					continue
				}
				if m.APs[w].Building == dst {
					return hops, nil
				}
				s.seen[w] = s.epoch
				q = append(q, w)
			}
		}
	}
	return 0, ErrUnreachable
}

// bfsScratch is MinTransmissions' per-call state. An AP is seen in the
// current call when seen[ap] == epoch, so a new call clears nothing.
type bfsScratch struct {
	seen  []uint32
	epoch uint32
	queue []int32 // capacity NumAPs: every AP is queued at most once
}

// unionFind is a weighted quick-union. Path compression happens only in
// flatten(), called once at build time; after that find is read-only and
// safe for concurrent callers.
type unionFind struct {
	parent []int32
	size   []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// flatten points every element directly at its root, so later find calls
// never write to parent.
func (uf *unionFind) flatten() {
	for i := range uf.parent {
		uf.parent[i] = int32(uf.find(i))
	}
}

func (uf *unionFind) find(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		p = uf.parent[p]
	}
	return int(p)
}

func (uf *unionFind) union(a, b int) {
	ra, rb := int32(uf.find(a)), int32(uf.find(b))
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
}
