package agent

import (
	"crypto/rand"
	"net"
	"sync"
	"testing"
	"time"

	"citymesh/internal/citygen"
	"citymesh/internal/core"
	"citymesh/internal/mesh"
	"citymesh/internal/osm"
	"citymesh/internal/packet"
	"citymesh/internal/postbox"
	"citymesh/internal/sim"
)

func testNetwork(t testing.TB, seed int64) *core.Network {
	t.Helper()
	n, err := core.FromSpec(citygen.SmallTestSpec(seed), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// reachablePacket plans a multi-hop packet on the network, preferring a
// pair the simulator confirms deliverable so agent tests exercise a live
// route.
func reachablePacket(t testing.TB, n *core.Network, seed int64) *packet.Packet {
	t.Helper()
	var fallback *packet.Packet
	pairs, err := n.RandomPairs(seed, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if !n.Reachable(p[0], p[1]) {
			continue
		}
		res, err := n.Send(p[0], p[1], []byte("agent test payload"), sim.DefaultConfig())
		if err != nil {
			continue
		}
		if res.Sim.Delivered {
			// Re-issue with a fresh message ID so agents see a new packet.
			pkt, err := n.NewPacket(res.Route, []byte("agent test payload"))
			if err != nil {
				continue
			}
			return pkt
		}
		if fallback == nil {
			fallback = res.Packet
		}
	}
	if fallback != nil {
		return fallback
	}
	t.Skip("no routable pair")
	return nil
}

func TestHubEndToEndDelivery(t *testing.T) {
	n := testNetwork(t, 91)
	hub := NewHub(n.Mesh, n.City)
	defer hub.Close()

	pkt := reachablePacket(t, n, 1)
	dst := pkt.Header.Dst()

	var mu sync.Mutex
	deliveredTo := map[int]bool{}
	for _, apID := range n.Mesh.APsInBuilding(dst) {
		id := int(apID)
		hub.Agent(id).OnDeliver(func(p *packet.Packet) {
			mu.Lock()
			deliveredTo[id] = true
			mu.Unlock()
		})
	}

	srcAP := int(n.Mesh.APsInBuilding(pkt.Header.Src())[0])
	if err := hub.Agent(srcAP).Inject(pkt); err != nil {
		t.Fatal(err)
	}
	hub.Flush()

	mu.Lock()
	got := len(deliveredTo)
	mu.Unlock()
	if got == 0 {
		t.Fatal("packet not delivered to any destination-building agent")
	}

	// Rebroadcast counters: at least the source transmitted; duplicates
	// were suppressed (every agent forwards at most once).
	total := 0
	for i := 0; i < hub.NumAgents(); i++ {
		st := hub.Agent(i).Stats()
		if st.Rebroadcast > 1 {
			t.Fatalf("agent %d rebroadcast %d times", i, st.Rebroadcast)
		}
		total += st.Rebroadcast
	}
	if total < 2 {
		t.Errorf("only %d rebroadcasts across the mesh", total)
	}
}

func TestHubAgentStatsAndDedup(t *testing.T) {
	n := testNetwork(t, 92)
	hub := NewHub(n.Mesh, n.City)
	defer hub.Close()
	pkt := reachablePacket(t, n, 2)
	srcAP := int(n.Mesh.APsInBuilding(pkt.Header.Src())[0])
	if err := hub.Agent(srcAP).Inject(pkt); err != nil {
		t.Fatal(err)
	}
	// Injecting the same message again must not re-flood.
	if err := hub.Agent(srcAP).Inject(pkt); err != nil {
		t.Fatal(err)
	}
	hub.Flush()
	st := hub.Agent(srcAP).Stats()
	if st.Rebroadcast != 2 {
		// two Injects, both transmit (source always transmits)
		t.Errorf("source rebroadcasts = %d", st.Rebroadcast)
	}
	dupSeen := false
	for i := 0; i < hub.NumAgents(); i++ {
		if hub.Agent(i).Stats().Duplicates > 0 {
			dupSeen = true
			break
		}
	}
	if !dupSeen {
		t.Error("no duplicate receptions recorded in a broadcast mesh")
	}
}

// TestHubKeptPayloadSurvivesLaterFrames pins the read-only shared-frame
// contract: receivers share one copy of each broadcast, and a delivered
// packet's Payload aliases it, so a callback that keeps the slice must
// still read the same bytes after later floods pass through the hub.
func TestHubKeptPayloadSurvivesLaterFrames(t *testing.T) {
	n := testNetwork(t, 91)
	hub := NewHub(n.Mesh, n.City)
	defer hub.Close()
	pkt := reachablePacket(t, n, 1)
	srcAP := int(n.Mesh.APsInBuilding(pkt.Header.Src())[0])

	var mu sync.Mutex
	var kept [][]byte
	for i := 0; i < hub.NumAgents(); i++ {
		hub.Agent(i).OnDeliver(func(p *packet.Packet) {
			if p.Header.MsgID == pkt.Header.MsgID {
				mu.Lock()
				kept = append(kept, p.Payload)
				mu.Unlock()
			}
		})
	}
	first := append([]byte(nil), pkt.Payload...)
	if err := hub.Agent(srcAP).Inject(pkt); err != nil {
		t.Fatal(err)
	}
	hub.Flush()
	for i := 0; i < 20; i++ {
		later := pkt.Clone()
		later.Header.MsgID = pkt.Header.MsgID + uint64(i) + 1
		for j := range later.Payload {
			later.Payload[j] = byte(i)
		}
		if err := hub.Agent(srcAP).Inject(later); err != nil {
			t.Fatal(err)
		}
		hub.Flush()
	}

	mu.Lock()
	defer mu.Unlock()
	if len(kept) == 0 {
		t.Fatal("the first message was not delivered")
	}
	for _, p := range kept {
		if string(p) != string(first) {
			t.Fatalf("kept payload changed to %q, want %q", p, first)
		}
	}
}

func TestAgentPostboxStorage(t *testing.T) {
	n := testNetwork(t, 93)
	hub := NewHub(n.Mesh, n.City)
	defer hub.Close()

	bob, err := postbox.NewIdentity(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pkt := reachablePacket(t, n, 3)
	pkt.Header.Flags |= packet.FlagPostbox
	copy(pkt.Header.Postbox[:], bob.Address().String()[:8]) // any 8 bytes
	var addr postbox.Address
	copy(addr[:], pkt.Header.Postbox[:])

	srcAP := int(n.Mesh.APsInBuilding(pkt.Header.Src())[0])
	if err := hub.Agent(srcAP).Inject(pkt); err != nil {
		t.Fatal(err)
	}
	hub.Flush()

	stored := 0
	for _, apID := range n.Mesh.APsInBuilding(pkt.Header.Dst()) {
		stored += hub.Agent(int(apID)).Store().Len(addr)
	}
	if stored == 0 {
		t.Fatal("no destination agent stored the postbox message")
	}
}

func TestAgentDropsGarbage(t *testing.T) {
	city := &osm.City{Name: "x"}
	a := New(Config{ID: 0, Building: -1, City: city}, nil)
	a.HandleFrame([]byte("not a citymesh frame"))
	if st := a.Stats(); st.Dropped != 1 || st.Received != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAgentTTLExhaustion(t *testing.T) {
	n := testNetwork(t, 94)
	pkt := reachablePacket(t, n, 4)
	pkt.Header.TTL = 1
	frame, err := pkt.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	ap := n.Mesh.APs[0]
	a := New(Config{ID: 0, Pos: ap.Pos, Building: ap.Building, City: n.City}, nil)
	a.HandleFrame(frame)
	if st := a.Stats(); st.Rebroadcast != 0 {
		t.Errorf("TTL=1 frame forwarded: %+v", st)
	}
}

func TestInjectWithoutTransport(t *testing.T) {
	n := testNetwork(t, 95)
	pkt := reachablePacket(t, n, 5)
	a := New(Config{ID: 0, Building: -1, City: n.City}, nil)
	if err := a.Inject(pkt); err == nil {
		t.Error("inject without transport should error")
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	got := make(chan []byte, 10)
	recv, err := NewUDPTransport("127.0.0.1:0", func(_ string, f []byte) { got <- f })
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	sender, err := NewUDPTransport("127.0.0.1:0", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	sender.SetNeighbors([]*net.UDPAddr{recv.Addr()})
	if err := sender.Broadcast([]byte("hello mesh")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f) != "hello mesh" {
			t.Errorf("frame = %q", f)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame not received")
	}
}

func TestUDPTransportErrors(t *testing.T) {
	if _, err := NewUDPTransport("not-an-addr", nil); err == nil {
		t.Error("bad address should error")
	}
	tr, err := NewUDPTransport("127.0.0.1:0", func(string, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Broadcast(make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversized frame should error")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
	if err := tr.Broadcast([]byte("x")); err == nil {
		t.Error("broadcast after close should error")
	}
}

func TestUDPAgentChainDelivery(t *testing.T) {
	// Three agents in a line on localhost; conduit covers all.
	n := testNetwork(t, 96)
	pkt := reachablePacket(t, n, 6)

	// Build three agents positioned along the first conduit leg.
	srcB := pkt.Header.Dst() // deliver "to" the dst building at agent 2
	city := n.City
	a0 := city.Buildings[pkt.Header.Src()].Centroid
	a2 := city.Buildings[srcB].Centroid
	a1 := a0.Lerp(a2, 0.5)

	agents := make([]*Agent, 3)
	transports := make([]*UDPTransport, 3)
	buildings := []int{pkt.Header.Src(), -1, srcB}
	positions := []struct{ p struct{ X, Y float64 } }{}
	_ = positions
	pos := []struct{ X, Y float64 }{{a0.X, a0.Y}, {a1.X, a1.Y}, {a2.X, a2.Y}}
	deliverCh := make(chan struct{}, 1)
	for i := 0; i < 3; i++ {
		cfg := Config{ID: i, Building: buildings[i], City: city}
		cfg.Pos.X, cfg.Pos.Y = pos[i].X, pos[i].Y
		agents[i] = New(cfg, nil)
		tr, err := NewUDPTransport("127.0.0.1:0", agents[i].HandleFrameFrom)
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		agents[i].Attach(tr)
		defer tr.Close()
	}
	agents[2].OnDeliver(func(*packet.Packet) {
		select {
		case deliverCh <- struct{}{}:
		default:
		}
	})
	// Chain adjacency: 0<->1<->2.
	transports[0].SetNeighbors([]*net.UDPAddr{transports[1].Addr()})
	transports[1].SetNeighbors([]*net.UDPAddr{transports[0].Addr(), transports[2].Addr()})
	transports[2].SetNeighbors([]*net.UDPAddr{transports[1].Addr()})

	if err := agents[0].Inject(pkt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-deliverCh:
	case <-time.After(3 * time.Second):
		t.Fatal("UDP chain did not deliver")
	}
}

func TestHubWithMinimalMesh(t *testing.T) {
	// Build a mesh of two adjacent buildings directly.
	n := testNetwork(t, 97)
	m := mesh.Place(n.City, mesh.Config{Density: 1e-12, Range: 5000, Seed: 1, MinPerBuilding: 1})
	hub := NewHub(m, n.City)
	defer hub.Close()
	if hub.NumAgents() != m.NumAPs() {
		t.Errorf("agents = %d, APs = %d", hub.NumAgents(), m.NumAPs())
	}
}

func BenchmarkHubFlood(b *testing.B) {
	n, err := core.FromSpec(citygen.SmallTestSpec(501), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	// One fixed deliverable packet template.
	var tmpl *packet.Packet
	pairs, err := n.RandomPairs(1, 300)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pairs {
		if !n.Reachable(p[0], p[1]) {
			continue
		}
		r, err := n.PlanRoute(p[0], p[1])
		if err != nil {
			continue
		}
		if tmpl, err = n.NewPacket(r, []byte("bench")); err == nil {
			break
		}
	}
	if tmpl == nil {
		b.Skip("no packet")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub := NewHub(n.Mesh, n.City)
		pkt := tmpl.Clone()
		pkt.Header.MsgID = uint64(i) + 1
		src := int(n.Mesh.APsInBuilding(pkt.Header.Src())[0])
		if err := hub.Agent(src).Inject(pkt); err != nil {
			b.Fatal(err)
		}
		hub.Close()
	}
}
