package svgrender

import (
	"io"

	"citymesh/internal/geo"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/sim"
)

// Palette used by the figure renderers; chosen to match the paper's plots
// (building footprints in red, APs as white dots on dark ground, conduit
// APs light blue, non-forwarding receivers red, route in green).
const (
	colorBuilding   = "#c0392b"
	colorWater      = "#5dade2"
	colorPark       = "#58d68d"
	colorHighway    = "#909497"
	colorAPLink     = "#7f8c8d"
	colorAP         = "#f2f3f4"
	colorConduitAP  = "#85c1e9"
	colorReceiveAP  = "#e74c3c"
	colorRoute      = "#28b463"
	colorConduitBox = "#aed6f1"
	darkBackground  = "#1b2631"
)

// RenderCity draws the paper's Figure 5a: building footprints (plus water,
// parks and highway corridors when present).
func RenderCity(w io.Writer, city *osm.City, pxWidth int) error {
	c := New(city.Bounds.Pad(20), pxWidth)
	for _, f := range city.Water {
		c.Polygon(f.Footprint, colorWater, "none", 0.7)
	}
	for _, f := range city.Parks {
		c.Polygon(f.Footprint, colorPark, "none", 0.6)
	}
	for _, f := range city.Highways {
		c.Polygon(f.Footprint, colorHighway, "none", 0.6)
	}
	for _, f := range city.Buildings {
		c.Polygon(f.Footprint, colorBuilding, "none", 0.9)
	}
	_, err := c.WriteTo(w)
	return err
}

// RenderMesh draws the paper's Figure 5b: footprints with APs as white dots
// interconnected by gray lines where within transmission range.
func RenderMesh(w io.Writer, city *osm.City, m *mesh.Mesh, pxWidth int) error {
	c := New(city.Bounds.Pad(20), pxWidth)
	c.SetBackground(darkBackground)
	for _, f := range city.Water {
		c.Polygon(f.Footprint, colorWater, "none", 0.4)
	}
	for _, f := range city.Buildings {
		c.Polygon(f.Footprint, colorBuilding, "none", 0.5)
	}
	adj := m.Adjacency()
	for i := range m.APs {
		for _, j := range adj.Neighbors(i) {
			if int(j) > i {
				c.Line(m.APs[i].Pos, m.APs[j].Pos, colorAPLink, 0.5)
			}
		}
	}
	for _, ap := range m.APs {
		c.Circle(ap.Pos, 1.5, colorAP)
	}
	_, err := c.WriteTo(w)
	return err
}

// RenderSimulation draws the paper's Figure 7: the conduit region, the
// building-route polyline in green, light blue dots for APs that
// rebroadcast, and red dots for APs that received without rebroadcasting.
// The transcript must come from a sim run with RecordTranscript set.
func RenderSimulation(w io.Writer, city *osm.City, m *mesh.Mesh, conduits []geo.OrientedRect,
	routeBuildings []int, res sim.Result, pxWidth int) error {
	c := New(city.Bounds.Pad(20), pxWidth)
	c.SetBackground(darkBackground)
	for _, f := range city.Water {
		c.Polygon(f.Footprint, colorWater, "none", 0.4)
	}
	for _, f := range city.Buildings {
		c.Polygon(f.Footprint, colorBuilding, "none", 0.35)
	}
	for _, o := range conduits {
		c.OrientedRect(o, colorConduitBox, 0.25)
	}
	// Route polyline through building centroids.
	if len(routeBuildings) >= 2 {
		pts := make([]geo.Point, 0, len(routeBuildings))
		for _, b := range routeBuildings {
			if b >= 0 && b < city.NumBuildings() {
				pts = append(pts, city.Buildings[b].Centroid)
			}
		}
		c.Polyline(pts, colorRoute, 2.5)
	}
	for id, rec := range res.Transcript {
		if !rec.Received {
			continue
		}
		if rec.Forwarded {
			c.Circle(m.APs[id].Pos, 2, colorConduitAP)
		} else {
			c.Circle(m.APs[id].Pos, 2, colorReceiveAP)
		}
	}
	_, err := c.WriteTo(w)
	return err
}
