package citygen

import (
	"fmt"
	"math"
	"math/rand"

	"citymesh/internal/geo"
)

// FedTopology is the shape of a federation's long-haul link graph.
type FedTopology int

const (
	// TopoLine chains the member cities in placement order.
	TopoLine FedTopology = iota
	// TopoRing is the line closed into a cycle (from three cities on).
	TopoRing
	// TopoHub links every city to city 0 (hub-and-spoke).
	TopoHub
	// TopoMesh links each city to its right and lower neighbours on the
	// placement lattice: a planar grid with redundant paths.
	TopoMesh
)

var topologyNames = []string{"line", "ring", "hub", "mesh"}

// String implements fmt.Stringer.
func (t FedTopology) String() string {
	if t < 0 || int(t) >= len(topologyNames) {
		return "unknown"
	}
	return topologyNames[t]
}

// ParseTopology maps a topology name (line, ring, hub, mesh) to its value.
func ParseTopology(s string) (FedTopology, error) {
	for i, name := range topologyNames {
		if s == name {
			return FedTopology(i), nil
		}
	}
	return 0, fmt.Errorf("citygen: unknown federation topology %q (want line, ring, hub or mesh)", s)
}

// FederationSpec parameterizes a synthetic federation of small cities.
type FederationSpec struct {
	// Cities is the member-city count (at least 2).
	Cities int
	// Topology is the long-haul link graph shape.
	Topology FedTopology
	// Seed drives member-city layouts and anchor placement.
	Seed int64
}

// FederationCity is one member city: its generator spec and its anchor on
// the federation plane, in kilometers.
type FederationCity struct {
	Name  string
	Spec  Spec
	PosKm geo.Point
}

// FederationLink is one long-haul link between member cities A and B
// (indices into Federation.Cities).
type FederationLink struct {
	A, B          int
	LatencyS      float64
	BandwidthMbps float64
}

// Federation is a generated federation: member cities plus the link graph.
type Federation struct {
	Cities []FederationCity
	Links  []FederationLink
}

const (
	// fedSpacingKm is the lattice pitch between member-city anchors;
	// fedJitterKm perturbs each anchor so no two links are equally long.
	fedSpacingKm = 40.0
	fedJitterKm  = 8.0
	// Fiber: light covers 200 km per millisecond, plus 1 ms of switching.
	fedFiberSPerKm   = 1.0 / 200000
	fedSwitchS       = 0.001
	fedBandwidthMbps = 1000.0
)

// GenerateFederation builds the federation. Member cities are small
// SmallTestSpec towns anchored on a jittered square lattice; the same
// spec always produces the same federation.
func GenerateFederation(fs FederationSpec) (*Federation, error) {
	if fs.Cities < 2 {
		return nil, fmt.Errorf("citygen: federation needs at least 2 cities, got %d", fs.Cities)
	}
	if fs.Topology < TopoLine || fs.Topology > TopoMesh {
		return nil, fmt.Errorf("citygen: unknown federation topology %d", int(fs.Topology))
	}
	rng := rand.New(rand.NewSource(fs.Seed))
	cols := int(math.Ceil(math.Sqrt(float64(fs.Cities))))
	f := &Federation{Cities: make([]FederationCity, fs.Cities)}
	for i := range f.Cities {
		spec := SmallTestSpec(rng.Int63())
		spec.Name = fmt.Sprintf("city%03d", i)
		jx := (rng.Float64()*2 - 1) * fedJitterKm
		jy := (rng.Float64()*2 - 1) * fedJitterKm
		f.Cities[i] = FederationCity{
			Name: spec.Name,
			Spec: spec,
			PosKm: geo.Pt(float64(i%cols)*fedSpacingKm+jx,
				float64(i/cols)*fedSpacingKm+jy),
		}
	}

	link := func(a, b int) {
		d := f.Cities[a].PosKm.Dist(f.Cities[b].PosKm)
		f.Links = append(f.Links, FederationLink{
			A: a, B: b,
			LatencyS:      fedSwitchS + d*fedFiberSPerKm,
			BandwidthMbps: fedBandwidthMbps,
		})
	}
	n := fs.Cities
	switch fs.Topology {
	case TopoLine, TopoRing:
		for i := 0; i+1 < n; i++ {
			link(i, i+1)
		}
		if fs.Topology == TopoRing && n >= 3 {
			link(n-1, 0)
		}
	case TopoHub:
		for i := 1; i < n; i++ {
			link(0, i)
		}
	case TopoMesh:
		for i := 0; i < n; i++ {
			if (i+1)%cols != 0 && i+1 < n {
				link(i, i+1)
			}
			if i+cols < n {
				link(i, i+cols)
			}
		}
	}
	return f, nil
}
