package backend

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpWriteTimeout bounds how long one frame write (plus its flush) may
// block on a stalled peer before Publish fails instead of hanging the
// caller forever.
const tcpWriteTimeout = 10 * time.Second

// tcpPort is one AP's client-side connection state. Its mutex
// serializes writers so concurrent Publish calls on the same port can
// never interleave partial frames on the wire.
type tcpPort struct {
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
}

// TCPHub is a Hub whose ports are real TCP connections over the loopback
// interface. A central goroutine accepts one connection per port and
// re-broadcasts every received frame to all other ports, mimicking the
// Ethernet hub the paper connects its APs with (Section 7.1d).
//
// Frames on the wire are Message.Marshal bytes; the 4-byte length inside
// the header delimits them. Writes are buffered per port and guarded by
// a write deadline, so a stalled peer surfaces as a Publish error rather
// than an unbounded block.
type TCPHub struct {
	ln    net.Listener
	mu    sync.Mutex
	ports []*tcpPort
	// reserved marks ports a ConnectPort call has claimed (connecting or
	// connected); a second claim is an error, never a silent overwrite.
	reserved []bool
	inbox    [][]Message
	bytes    int64
	wg       sync.WaitGroup
	// connectMu serializes the dial/accept pairing: the shared listener
	// hands out accepted conns in arrival order, so two in-flight
	// ConnectPort calls for different ports could otherwise swap each
	// other's server-side connections and mis-route every frame.
	connectMu sync.Mutex

	closeOnce sync.Once
	closed    chan struct{}
}

// NewTCPHub starts a hub listening on 127.0.0.1 (ephemeral port) and
// expecting exactly `ports` AP connections. Call Addr to learn the
// address, ConnectPort once per port, then use the Hub interface.
func NewTCPHub(ports int) (*TCPHub, error) {
	if ports <= 0 {
		return nil, fmt.Errorf("backend: hub needs at least one port")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &TCPHub{
		ln:       ln,
		ports:    make([]*tcpPort, ports),
		reserved: make([]bool, ports),
		inbox:    make([][]Message, ports),
		closed:   make(chan struct{}),
	}
	for i := range h.ports {
		h.ports[i] = &tcpPort{}
	}
	return h, nil
}

// Addr returns the hub's listen address.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// ConnectPort dials the hub and registers the connection as the given
// port. It must be called exactly once per port before publishing, and
// is safe to call concurrently: a second call for the same port returns
// an error even if it races the first (the port is reserved before the
// dial, so two calls can never both win and silently overwrite each
// other's connection), and calls for different ports serialize their
// dial/accept pairing so the shared listener cannot hand one call the
// connection another call dialed.
func (h *TCPHub) ConnectPort(port int) error {
	h.mu.Lock()
	if port < 0 || port >= len(h.ports) {
		h.mu.Unlock()
		return fmt.Errorf("backend: port %d out of range", port)
	}
	if h.reserved[port] {
		h.mu.Unlock()
		return fmt.Errorf("backend: port %d already connected", port)
	}
	h.reserved[port] = true
	h.mu.Unlock()
	release := func() {
		h.mu.Lock()
		h.reserved[port] = false
		h.mu.Unlock()
	}

	// Dial and accept must proceed together, and only one pairing may be
	// in flight at a time (see connectMu). Close takes the same lock, so
	// once we hold it either the hub is still open (and Close will see
	// whatever connection we install) or it is closed and we must bail —
	// a connect completing after Close would leak its serve goroutine.
	h.connectMu.Lock()
	defer h.connectMu.Unlock()
	select {
	case <-h.closed:
		release()
		return fmt.Errorf("backend: hub closed")
	default:
	}
	type acceptResult struct {
		conn net.Conn
		err  error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		c, err := h.ln.Accept()
		acceptCh <- acceptResult{c, err}
	}()
	client, err := net.Dial("tcp", h.Addr())
	if err != nil {
		release()
		return err
	}
	res := <-acceptCh
	if res.err != nil {
		client.Close()
		release()
		return res.err
	}
	p := h.ports[port]
	p.mu.Lock()
	p.conn = client
	p.w = bufio.NewWriter(client)
	p.mu.Unlock()

	// Server side: read frames from this port and broadcast.
	h.wg.Add(1)
	go h.servePort(port, res.conn)
	return nil
}

func (h *TCPHub) servePort(port int, conn net.Conn) {
	defer h.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	hdr := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return
		}
		plen, err := payloadLen(hdr)
		if err != nil {
			// A corrupt or hostile length: drop the port rather than
			// allocate what the header claims.
			return
		}
		frame := make([]byte, headerLen+plen)
		copy(frame, hdr)
		if _, err := io.ReadFull(r, frame[headerLen:]); err != nil {
			return
		}
		msg, _, err := UnmarshalMessage(frame)
		if err != nil {
			return
		}
		h.mu.Lock()
		h.bytes += int64(len(frame))
		for p := range h.inbox {
			if p != port {
				h.inbox[p] = append(h.inbox[p], msg)
			}
		}
		h.mu.Unlock()
	}
}

// Publish implements Hub: it writes the frame on the port's client
// connection (buffered, flushed per frame, under a write deadline); the
// hub goroutine rebroadcasts it.
func (h *TCPHub) Publish(port int, msg Message) error {
	if port < 0 || port >= len(h.ports) {
		return fmt.Errorf("backend: port %d out of range", port)
	}
	p := h.ports[port]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return fmt.Errorf("backend: port %d not connected", port)
	}
	if len(msg.Payload) > MaxPayload {
		return ErrPayloadTooLarge
	}
	//iacvet:allow detpure:wallclock socket write deadline for hub liveness; bounds a syscall, never feeds simulation state
	if err := p.conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout)); err != nil {
		return err
	}
	if _, err := p.w.Write(msg.Marshal()); err != nil {
		return err
	}
	return p.w.Flush()
}

// Drain implements Hub. Because delivery crosses a real socket, callers
// that need a just-published message should use DrainWait instead.
func (h *TCPHub) Drain(port int) []Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port < 0 || port >= len(h.inbox) {
		return nil
	}
	out := h.inbox[port]
	h.inbox[port] = nil
	return out
}

// DrainWait drains the port, polling until at least min messages have
// arrived, every connection has closed, or the timeout expires.
func (h *TCPHub) DrainWait(port, min int, timeout time.Duration) []Message {
	//iacvet:allow detpure:wallclock caller-supplied poll timeout; bounds how long we wait, not what is drained
	deadline := time.Now().Add(timeout)
	var out []Message
	for {
		out = append(out, h.Drain(port)...)
		//iacvet:allow detpure:wallclock poll-deadline check; affects wait duration only, message content is whatever arrived
		if len(out) >= min || time.Now().After(deadline) {
			return out
		}
		//iacvet:allow detpure:select close-vs-timer wakeup race only affects poll latency; both arms re-drain the same inbox
		select {
		case <-h.closed:
			return append(out, h.Drain(port)...)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// BytesOnWire implements Hub.
func (h *TCPHub) BytesOnWire() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// Close shuts the hub and all connections down. It is safe against
// in-flight ConnectPort calls: closing the listener aborts any pairing
// still dialing, and connectMu ensures a pairing that already succeeded
// has installed its connection (and serve goroutine) before Close
// sweeps the ports, so nothing leaks.
func (h *TCPHub) Close() error {
	h.closeOnce.Do(func() {
		close(h.closed)
		h.ln.Close()
		h.connectMu.Lock()
		for _, p := range h.ports {
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.mu.Unlock()
		}
		h.connectMu.Unlock()
		h.wg.Wait()
	})
	return nil
}
