package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"citymesh/internal/citygen"
	"citymesh/internal/geo"
	"citymesh/internal/osm"
)

// squareCity makes n buildings of the given size at the given centers.
func squareCity(size float64, centers ...geo.Point) *osm.City {
	city := &osm.City{Name: "sq"}
	h := size / 2
	for i, c := range centers {
		fp := geo.Polygon{
			c.Add(geo.Pt(-h, -h)), c.Add(geo.Pt(h, -h)),
			c.Add(geo.Pt(h, h)), c.Add(geo.Pt(-h, h)),
		}
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: fp, Centroid: c,
		})
	}
	return city
}

func planCity(p *citygen.Plan) *osm.City {
	city := &osm.City{Name: p.Spec.Name, Bounds: p.Bounds}
	for i, b := range p.Buildings {
		city.Buildings = append(city.Buildings, &osm.Feature{
			ID: osm.ID(i + 1), Kind: osm.KindBuilding,
			Footprint: b.Footprint, Centroid: b.Footprint.Centroid(),
		})
	}
	return city
}

func TestPlaceAPsInsideFootprints(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	city := planCity(plan)
	m := Place(city, DefaultConfig())
	if m.NumAPs() < city.NumBuildings() {
		t.Fatalf("APs %d < buildings %d (MinPerBuilding=1)", m.NumAPs(), city.NumBuildings())
	}
	for _, ap := range m.APs {
		fp := city.Buildings[ap.Building].Footprint
		if !fp.Contains(ap.Pos) && fp.DistToPoint(ap.Pos) > 1 {
			t.Fatalf("AP %d at %v outside its building %d", ap.ID, ap.Pos, ap.Building)
		}
	}
}

func TestPlaceDensityScaling(t *testing.T) {
	// One 10000 m² building: at 1/200 density expect ~50 APs.
	city := squareCity(100, geo.Pt(0, 0))
	cfg := DefaultConfig()
	m := Place(city, cfg)
	if n := m.NumAPs(); n < 35 || n > 65 {
		t.Errorf("APs = %d, want ~50", n)
	}
	// Double density, roughly double APs.
	cfg2 := cfg
	cfg2.Density = 1.0 / 100.0
	m2 := Place(city, cfg2)
	if m2.NumAPs() < m.NumAPs()*3/2 {
		t.Errorf("doubled density gives %d vs %d APs", m2.NumAPs(), m.NumAPs())
	}
}

func TestPlaceDeterministic(t *testing.T) {
	city := squareCity(50, geo.Pt(0, 0), geo.Pt(100, 0))
	a := Place(city, DefaultConfig())
	b := Place(city, DefaultConfig())
	if a.NumAPs() != b.NumAPs() {
		t.Fatal("nondeterministic AP count")
	}
	for i := range a.APs {
		if a.APs[i].Pos != b.APs[i].Pos {
			t.Fatal("nondeterministic AP positions")
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	c := Place(city, cfg)
	same := c.NumAPs() == a.NumAPs()
	if same {
		for i := range c.APs {
			if c.APs[i].Pos != a.APs[i].Pos {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestReachability(t *testing.T) {
	// Two buildings 30 m apart (centroid) — APs within 50 m range.
	near := squareCity(20, geo.Pt(0, 0), geo.Pt(40, 0))
	m := Place(near, DefaultConfig())
	if !m.Reachable(0, 1) {
		t.Error("adjacent buildings should be reachable")
	}
	// Two buildings 500 m apart — isolated.
	far := squareCity(20, geo.Pt(0, 0), geo.Pt(500, 0))
	mf := Place(far, DefaultConfig())
	if mf.Reachable(0, 1) {
		t.Error("distant buildings should be unreachable")
	}
	if mf.Reachable(-1, 0) || mf.Reachable(0, 99) {
		t.Error("out-of-range buildings should be unreachable")
	}
}

func TestReachableViaChain(t *testing.T) {
	// Chain of buildings spaced so that worst-case AP placement is still
	// within range of the next building (35 m centers + 14 m footprints:
	// max AP separation 49 m < 50 m range).
	centers := []geo.Point{}
	for i := 0; i < 6; i++ {
		centers = append(centers, geo.Pt(float64(i)*35, 0))
	}
	city := squareCity(14, centers...)
	m := Place(city, DefaultConfig())
	if !m.Reachable(0, 5) {
		t.Error("chain should connect end to end")
	}
}

func TestMinTransmissions(t *testing.T) {
	// Three buildings in a row, each hop within range.
	city := squareCity(10, geo.Pt(0, 0), geo.Pt(45, 0), geo.Pt(90, 0))
	cfg := DefaultConfig()
	cfg.Density = 1e-9 // MinPerBuilding=1 gives exactly one AP each
	m := Place(city, cfg)
	if m.NumAPs() != 3 {
		t.Fatalf("APs = %d, want 3", m.NumAPs())
	}
	hops, err := m.MinTransmissions(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 0->1->2 = 2 transmissions (the final receive is not a transmission).
	if hops != 2 {
		t.Errorf("hops = %d, want 2", hops)
	}
	if h, err := m.MinTransmissions(1, 1); err != nil || h != 0 {
		t.Errorf("self transmissions = %d, %v", h, err)
	}
	if _, err := m.MinTransmissions(0, 99); err == nil {
		t.Error("out of range should error")
	}
}

func TestMinTransmissionsUnreachable(t *testing.T) {
	city := squareCity(10, geo.Pt(0, 0), geo.Pt(1000, 0))
	m := Place(city, DefaultConfig())
	if _, err := m.MinTransmissions(0, 1); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

// refMinTransmissions is the map-based BFS MinTransmissions replaced.
func refMinTransmissions(m *Mesh, src, dst int) (int, bool) {
	if src == dst {
		return 0, true
	}
	adj := m.Adjacency()
	dist := make([]int, len(m.APs))
	for i := range dist {
		dist[i] = -1
	}
	var q []int32
	for _, s := range m.byBuilding[src] {
		dist[s] = 0
		q = append(q, s)
	}
	inDst := map[int32]bool{}
	for _, d := range m.byBuilding[dst] {
		inDst[d] = true
	}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, w := range adj.Neighbors(int(v)) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				if inDst[w] {
					return dist[w], true
				}
				q = append(q, w)
			}
		}
	}
	return 0, false
}

// islandCity is a small generated city plus a far-off pair of buildings,
// so random building pairs include unreachable ones.
func islandCity(t testing.TB, seed int64) *osm.City {
	plan, err := citygen.Generate(citygen.SmallTestSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	city := planCity(plan)
	far := squareCity(14, geo.Pt(3000, 3000), geo.Pt(3040, 3000))
	city.Buildings = append(city.Buildings, far.Buildings...)
	return city
}

func TestMinTransmissionsMatchesBFSOnRandomMesh(t *testing.T) {
	city := islandCity(t, 42)
	m := Place(city, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	n := city.NumBuildings()
	var unreachable, self int
	for trial := 0; trial < 200; trial++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		switch trial % 20 {
		case 0:
			dst = src
		case 1:
			src = n - 1 - rng.Intn(2) // on the far island
		}
		got, err := m.MinTransmissions(src, dst)
		want, ok := refMinTransmissions(m, src, dst)
		if !ok {
			unreachable++
			if err != ErrUnreachable {
				t.Fatalf("%d->%d: got %d, %v; reference BFS says unreachable", src, dst, got, err)
			}
			continue
		}
		if src == dst {
			self++
		}
		if err != nil || got != want {
			t.Fatalf("%d->%d: MinTransmissions = %d, %v; reference BFS %d", src, dst, got, err, want)
		}
	}
	if unreachable == 0 || self == 0 {
		t.Fatalf("pairs cover %d unreachable and %d src == dst; want both", unreachable, self)
	}
}

// raceEnabled is set under -race, where sync.Pool drops items at random
// and allocation counts say nothing about the code.
var raceEnabled bool

func TestMinTransmissionsWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	m := Place(islandCity(t, 46), DefaultConfig())
	n := len(m.byBuilding)
	i := 0
	_, _ = m.MinTransmissions(0, n-1)
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = m.MinTransmissions(i%n, (i*13+7)%n)
		i++
	})
	if allocs != 0 {
		t.Errorf("warm MinTransmissions: %v allocs/op, want 0", allocs)
	}
}

func TestMinTransmissionsConcurrent(t *testing.T) {
	city := islandCity(t, 47)
	m := Place(city, DefaultConfig())
	n := city.NumBuildings()
	type pair struct{ src, dst, hops int }
	rng := rand.New(rand.NewSource(5))
	pairs := make([]pair, 64)
	for i := range pairs {
		p := pair{src: rng.Intn(n), dst: rng.Intn(n)}
		var ok bool
		if p.hops, ok = refMinTransmissions(m, p.src, p.dst); !ok {
			p.hops = -1
		}
		pairs[i] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4*len(pairs); k++ {
				p := pairs[(g*7+k)%len(pairs)]
				got, err := m.MinTransmissions(p.src, p.dst)
				if err != nil {
					got = -1
				}
				if got != p.hops {
					errs <- fmt.Errorf("goroutine %d: %d->%d = %d, want %d", g, p.src, p.dst, got, p.hops)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(43))
	if err != nil {
		t.Fatal(err)
	}
	m := Place(planCity(plan), DefaultConfig())
	for i := range m.APs {
		m.Neighbors(i, func(j int) {
			found := false
			m.Neighbors(j, func(k int) { found = found || k == i })
			if !found {
				t.Fatalf("adjacency asymmetric: %d->%d", i, j)
			}
		})
	}
	if m.NumLinks() <= 0 {
		t.Error("no links in a dense city")
	}
}

// TestAdjacencyMatchesUnitDisk checks the CSR against brute force: AP v's
// neighbours are exactly the other APs within range, listed in grid visit
// order (range-sized cells cx ascending, then cy, then AP id). The CSR is
// symmetric and has no self-loops.
func TestAdjacencyMatchesUnitDisk(t *testing.T) {
	m := Place(islandCity(t, 43), DefaultConfig())
	r := m.Cfg.Range
	cell := func(p geo.Point) [2]float64 {
		return [2]float64{math.Floor(p.X * (1 / r)), math.Floor(p.Y * (1 / r))}
	}
	adj := m.Adjacency()
	if len(adj.Off) != m.NumAPs()+1 {
		t.Fatalf("len(Off) = %d, want %d", len(adj.Off), m.NumAPs()+1)
	}
	for v, ap := range m.APs {
		var want []int32
		for w, other := range m.APs {
			if w != v && ap.Pos.Dist2(other.Pos) <= r*r {
				want = append(want, int32(w))
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			ca, cb := cell(m.APs[want[a]].Pos), cell(m.APs[want[b]].Pos)
			if ca[0] != cb[0] {
				return ca[0] < cb[0]
			}
			return ca[1] < cb[1]
		})
		got := adj.Neighbors(v)
		if !slices.Equal(got, want) {
			t.Fatalf("AP %d neighbours %v, brute force in visit order %v", v, got, want)
		}
		for _, w := range got {
			if int(w) == v {
				t.Fatalf("AP %d lists itself", v)
			}
			if !slices.Contains(adj.Neighbors(int(w)), int32(v)) {
				t.Fatalf("adjacency asymmetric: %d->%d", v, w)
			}
		}
	}
}

func TestNumLinksGridtown(t *testing.T) {
	spec, ok := citygen.Preset("gridtown")
	if !ok {
		t.Fatal("gridtown preset missing")
	}
	plan, err := citygen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := Place(planCity(plan), DefaultConfig())
	// Recorded from the hash-map grid and [][]int32 adjacency that the
	// dense grid and CSR replaced.
	if m.NumAPs() != 4811 || m.NumLinks() != 24961 {
		t.Errorf("gridtown: %d APs, %d links; want 4811, 24961", m.NumAPs(), m.NumLinks())
	}
}

func TestReachabilityAgreesWithBFS(t *testing.T) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(44))
	if err != nil {
		t.Fatal(err)
	}
	m := Place(planCity(plan), DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 25; trial++ {
		a := rng.Intn(len(m.byBuilding))
		b := rng.Intn(len(m.byBuilding))
		_, err := m.MinTransmissions(a, b)
		if m.Reachable(a, b) != (err == nil) {
			t.Fatalf("union-find and BFS disagree for %d-%d", a, b)
		}
	}
}

func TestIslands(t *testing.T) {
	// Two clusters far apart: 3 buildings + 2 buildings.
	city := squareCity(14,
		geo.Pt(0, 0), geo.Pt(40, 0), geo.Pt(80, 0),
		geo.Pt(2000, 0), geo.Pt(2040, 0),
	)
	m := Place(city, DefaultConfig())
	islands := m.Islands()
	if len(islands) != 2 {
		t.Fatalf("islands = %d, want 2", len(islands))
	}
	if islands[0].APs < islands[1].APs {
		t.Error("islands not sorted by size")
	}
	if islands[0].Buildings != 3 || islands[1].Buildings != 2 {
		t.Errorf("island buildings = %d, %d", islands[0].Buildings, islands[1].Buildings)
	}
}

func TestPlanBridgesAndAddAPs(t *testing.T) {
	city := squareCity(14,
		geo.Pt(0, 0), geo.Pt(40, 0),
		geo.Pt(300, 0), geo.Pt(340, 0),
	)
	m := Place(city, DefaultConfig())
	if m.Reachable(0, 2) {
		t.Fatal("clusters should start disconnected")
	}
	bridges := m.PlanBridges(1)
	if len(bridges) != 1 {
		t.Fatalf("bridges = %d, want 1", len(bridges))
	}
	br := bridges[0]
	if len(br.Relays) == 0 {
		t.Fatal("bridge over a 200+ m gap needs relays")
	}
	// Consecutive relay hops must each be under range.
	chain := append([]geo.Point{br.From}, br.Relays...)
	chain = append(chain, br.To)
	for i := 0; i+1 < len(chain); i++ {
		if d := chain[i].Dist(chain[i+1]); d >= m.Cfg.Range {
			t.Fatalf("relay hop %d is %.1f m >= range", i, d)
		}
	}
	m.AddAPs(br.Relays)
	if !m.Reachable(0, 2) {
		t.Error("bridge should connect the islands")
	}
}

func TestPlanBridgesSingleIsland(t *testing.T) {
	city := squareCity(14, geo.Pt(0, 0), geo.Pt(40, 0))
	m := Place(city, DefaultConfig())
	if got := m.PlanBridges(1); got != nil {
		t.Errorf("single island should need no bridges, got %v", got)
	}
}

func TestRelayChain(t *testing.T) {
	if r := relayChain(geo.Pt(0, 0), geo.Pt(30, 0), 50); r != nil {
		t.Errorf("within-range chain = %v", r)
	}
	r := relayChain(geo.Pt(0, 0), geo.Pt(120, 0), 50)
	if len(r) < 2 {
		t.Fatalf("relays = %v", r)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.union(0, 1)
	uf.union(3, 4)
	if uf.find(0) != uf.find(1) || uf.find(3) != uf.find(4) {
		t.Error("union failed")
	}
	if uf.find(0) == uf.find(3) {
		t.Error("distinct sets merged")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(4) {
		t.Error("transitive union failed")
	}
	uf.union(0, 4) // already same set: no-op
	if uf.find(2) != 2 {
		t.Error("singleton moved")
	}
}

func BenchmarkPlace(b *testing.B) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(45))
	if err != nil {
		b.Fatal(err)
	}
	city := planCity(plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Place(city, DefaultConfig())
	}
}

func BenchmarkMinTransmissions(b *testing.B) {
	plan, err := citygen.Generate(citygen.SmallTestSpec(46))
	if err != nil {
		b.Fatal(err)
	}
	city := planCity(plan)
	m := Place(city, DefaultConfig())
	n := city.NumBuildings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = m.MinTransmissions(i%n, (i*13+7)%n)
	}
}
