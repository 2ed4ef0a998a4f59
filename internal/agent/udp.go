package agent

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// FrameHandler receives one inbound frame. src is the sender's transport
// address ("" when unknown); agents use it for per-source rate limiting
// and the liveness table. The frame is read-only: a transport may hand the
// same bytes to several handlers, and a handler may keep slices of it (a
// decoded packet's Payload aliases the frame), so no transport reuses a
// frame once handed out.
type FrameHandler func(src string, frame []byte)

// UDPTransport is a real-socket transport: each agent listens on a UDP
// port, and "radio" broadcast is emulated by unicasting the frame to every
// neighbor's address. Neighbor sets are computed from AP geometry by the
// caller, exactly as physical proximity would determine them — this is the
// repository's localhost testbed for the paper's proposed real-world
// deployment (§6).
//
// The receive path is supervised for months-unattended operation: a panic
// escaping the frame handler is absorbed, and if the read loop dies (the
// socket is closed or errors persistently out from under it), a watchdog
// rebinds the same port and resumes reading, with exponential backoff
// between attempts.
type UDPTransport struct {
	mu        sync.Mutex
	conn      *net.UDPConn
	neighbors []*net.UDPAddr
	closed    bool
	restarts  int // read-loop restarts by the watchdog
	panics    int // handler panics absorbed by the read loop
	wg        sync.WaitGroup
}

// MaxFrameSize bounds a CityMesh UDP frame (well above any header +
// low-bandwidth payload the system carries).
const MaxFrameSize = 64 * 1024

// consecutive read errors on a live socket before the watchdog rebinds it.
const maxReadErrors = 8

// NewUDPTransport binds a UDP socket on addr (e.g. "127.0.0.1:0") and
// delivers inbound frames to onFrame until Close.
func NewUDPTransport(addr string, onFrame FrameHandler) (*UDPTransport, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("agent: listen %q: %w", addr, err)
	}
	t := &UDPTransport{conn: conn}
	t.wg.Add(1)
	go t.supervise(onFrame)
	return t, nil
}

// Addr returns the transport's bound address.
func (t *UDPTransport) Addr() *net.UDPAddr {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conn.LocalAddr().(*net.UDPAddr)
}

// Health reports supervision counters: read-loop restarts performed by the
// watchdog and handler panics absorbed.
func (t *UDPTransport) Health() (restarts, panics int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.restarts, t.panics
}

// SetNeighbors installs the addresses reached by Broadcast. The slice is
// copied.
func (t *UDPTransport) SetNeighbors(addrs []*net.UDPAddr) {
	t.mu.Lock()
	t.neighbors = append([]*net.UDPAddr(nil), addrs...)
	t.mu.Unlock()
}

// Broadcast implements Transport: one datagram per neighbor.
func (t *UDPTransport) Broadcast(frame []byte) error {
	if len(frame) > MaxFrameSize {
		return fmt.Errorf("agent: frame %d bytes exceeds max %d", len(frame), MaxFrameSize)
	}
	t.mu.Lock()
	neighbors := t.neighbors
	conn := t.conn
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return errors.New("agent: transport closed")
	}
	var firstErr error
	for _, addr := range neighbors {
		if _, err := conn.WriteToUDP(frame, addr); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// supervise runs the read loop, restarting it — rebinding the socket if
// necessary — whenever it exits without Close having been called. This is
// the watchdog that keeps a deployed agent receiving after transient
// socket failure.
func (t *UDPTransport) supervise(onFrame FrameHandler) {
	defer t.wg.Done()
	backoff := 10 * time.Millisecond
	for {
		t.mu.Lock()
		conn, closed := t.conn, t.closed
		t.mu.Unlock()
		if closed {
			return
		}
		t.readLoop(conn, onFrame)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return
		}
		t.restarts++
		port := conn.LocalAddr().(*net.UDPAddr)
		t.mu.Unlock()

		time.Sleep(backoff)
		if backoff < time.Second {
			backoff *= 2
		}
		// Rebind the same port. If the old socket is somehow still open
		// this fails (address in use) and we retry reading on it; if it is
		// dead, the fresh socket takes over.
		if fresh, err := net.ListenUDP("udp", port); err == nil {
			t.mu.Lock()
			if t.closed {
				t.mu.Unlock()
				fresh.Close()
				return
			}
			t.conn.Close()
			t.conn = fresh
			t.mu.Unlock()
			backoff = 10 * time.Millisecond
		}
	}
}

// readLoop reads frames from conn until the socket dies or errors
// persist; it returns to hand control back to the watchdog.
func (t *UDPTransport) readLoop(conn *net.UDPConn, onFrame FrameHandler) {
	buf := make([]byte, MaxFrameSize)
	readErrs := 0
	for {
		n, sender, err := conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			readErrs++
			if readErrs > maxReadErrors {
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		readErrs = 0
		frame := append([]byte(nil), buf[:n]...)
		src := ""
		if sender != nil {
			src = sender.String()
		}
		t.deliver(onFrame, src, frame)
	}
}

// deliver invokes the handler, absorbing panics so one hostile frame
// cannot take the read loop down.
func (t *UDPTransport) deliver(onFrame FrameHandler, src string, frame []byte) {
	defer func() {
		if r := recover(); r != nil {
			t.mu.Lock()
			t.panics++
			t.mu.Unlock()
		}
	}()
	onFrame(src, frame)
}

// Close shuts the socket and waits for the supervisor to exit.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conn := t.conn
	t.mu.Unlock()
	err := conn.Close()
	t.wg.Wait()
	return err
}
