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
	adjOnce    sync.Once
	adj        [][]int32
}

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
		grid:       geo.NewGrid(cfg.Range),
		byBuilding: make([][]int32, len(city.Buildings)),
	}
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
			m.grid.Insert(p)
			m.byBuilding[bi] = append(m.byBuilding[bi], int32(id))
		}
	}
	m.buildUnionFind()
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
// (excluding itself).
func (m *Mesh) Neighbors(id int, fn func(other int)) {
	pos := m.APs[id].Pos
	m.grid.WithinRadius(pos, m.Cfg.Range, func(j int, _ geo.Point) bool {
		if j != id {
			fn(j)
		}
		return true
	})
}

// Adjacency returns (building and caching) the AP adjacency lists. For
// large meshes this is the dominant memory cost, so it is built lazily —
// under sync.Once, because concurrent Engine.Run calls over one Network all
// land here on their first BFS.
func (m *Mesh) Adjacency() [][]int32 {
	m.adjOnce.Do(func() {
		m.adj = make([][]int32, len(m.APs))
		for i := range m.APs {
			m.Neighbors(i, func(j int) {
				m.adj[i] = append(m.adj[i], int32(j))
			})
		}
	})
	return m.adj
}

// NumLinks returns the number of undirected AP-AP links.
func (m *Mesh) NumLinks() int {
	n := 0
	for _, a := range m.Adjacency() {
		n += len(a)
	}
	return n / 2
}

func (m *Mesh) buildUnionFind() {
	m.uf = newUnionFind(len(m.APs))
	for i := range m.APs {
		m.Neighbors(i, func(j int) {
			if j > i {
				m.uf.union(i, j)
			}
		})
	}
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
	adj := m.Adjacency()
	dist := make([]int32, len(m.APs))
	for i := range dist {
		dist[i] = -1
	}
	var queue []int32
	for _, s := range m.byBuilding[src] {
		dist[s] = 0
		queue = append(queue, s)
	}
	inDst := make(map[int32]bool, len(m.byBuilding[dst]))
	for _, d := range m.byBuilding[dst] {
		inDst[d] = true
		if dist[d] == 0 {
			return 0, nil // shared AP (shouldn't happen, but harmless)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] >= 0 {
				continue
			}
			dist[w] = dist[v] + 1
			if inDst[w] {
				return int(dist[w]), nil
			}
			queue = append(queue, w)
		}
	}
	return 0, ErrUnreachable
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
		uf.parent[i] = int32(uf.root(i))
	}
}

func (uf *unionFind) root(x int) int {
	p := int32(x)
	for uf.parent[p] != p {
		p = uf.parent[p]
	}
	return int(p)
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
