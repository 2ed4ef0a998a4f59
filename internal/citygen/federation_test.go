package citygen

import (
	"reflect"
	"testing"
)

func TestGenerateFederationDeterministic(t *testing.T) {
	spec := FederationSpec{Cities: 7, Topology: TopoMesh, Seed: 3}
	a, err := GenerateFederation(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFederation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec produced different federations")
	}
	spec.Seed = 4
	c, err := GenerateFederation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical federations")
	}
	names := map[string]bool{}
	for _, fc := range a.Cities {
		if names[fc.Name] {
			t.Errorf("duplicate city name %q", fc.Name)
		}
		names[fc.Name] = true
		if fc.Spec.Name != fc.Name {
			t.Errorf("spec name %q != city name %q", fc.Spec.Name, fc.Name)
		}
	}
}

func TestGenerateFederationRejectsTooFewCities(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if _, err := GenerateFederation(FederationSpec{Cities: n}); err == nil {
			t.Errorf("%d cities accepted", n)
		}
	}
	if _, err := GenerateFederation(FederationSpec{Cities: 3, Topology: FedTopology(99)}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestParseTopologyRoundTrip(t *testing.T) {
	for _, topo := range []FedTopology{TopoLine, TopoRing, TopoHub, TopoMesh} {
		got, err := ParseTopology(topo.String())
		if err != nil || got != topo {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", topo.String(), got, err, topo)
		}
	}
	if _, err := ParseTopology("star"); err == nil {
		t.Error("unknown name accepted")
	}
	if FedTopology(99).String() != "unknown" {
		t.Errorf("out-of-range String = %q", FedTopology(99).String())
	}
}

// TestFederationLinkGraphConnected checks every topology at several sizes
// (including a partial last lattice row) yields one connected component
// with valid, positive-cost links.
func TestFederationLinkGraphConnected(t *testing.T) {
	for _, topo := range []FedTopology{TopoLine, TopoRing, TopoHub, TopoMesh} {
		for _, n := range []int{2, 3, 5, 10, 11} {
			fed, err := GenerateFederation(FederationSpec{Cities: n, Topology: topo, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(fed.Cities) != n {
				t.Fatalf("%v/%d: %d cities", topo, n, len(fed.Cities))
			}
			parent := make([]int, n)
			for i := range parent {
				parent[i] = i
			}
			var find func(int) int
			find = func(i int) int {
				if parent[i] != i {
					parent[i] = find(parent[i])
				}
				return parent[i]
			}
			for _, l := range fed.Links {
				if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n || l.A == l.B {
					t.Fatalf("%v/%d: bad link %+v", topo, n, l)
				}
				if l.LatencyS <= 0 || l.BandwidthMbps <= 0 {
					t.Errorf("%v/%d: non-positive link cost %+v", topo, n, l)
				}
				parent[find(l.A)] = find(l.B)
			}
			for i := 1; i < n; i++ {
				if find(i) != find(0) {
					t.Errorf("%v/%d: city %d disconnected", topo, n, i)
				}
			}
		}
	}
}
