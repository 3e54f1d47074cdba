package transport

import (
	"fmt"
	"sync"

	"repro/internal/protocol"
)

// Mem is an in-process Transport: listeners live in a shared registry and
// connections are paired buffered channels. One Mem value is one isolated
// network; nodes must share the same Mem to reach each other.
//
// Messages pass through the pipe by reference — no serialization, no
// copies: the exact Message value (including its payload slices, typically
// a piece store's pooled backing buffers) handed to Send is what Recv
// returns on the other side. Senders must therefore treat payloads as
// frozen once sent, which the node guarantees by never mutating stored
// piece data.
type Mem struct {
	mu         sync.Mutex
	listeners  map[string]*memListener
	nextAddr   int
	nextDialer int
}

var _ Transport = (*Mem)(nil)

// NewMem returns an empty in-memory network.
func NewMem() *Mem {
	return &Mem{listeners: make(map[string]*memListener)}
}

// Listen binds addr ("" auto-generates a unique address).
func (m *Mem) Listen(addr string) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == "" {
		addr = fmt.Sprintf("mem://%d", m.nextAddr)
		m.nextAddr++
	}
	if _, exists := m.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	l := &memListener{
		mem:     m,
		addr:    addr,
		backlog: make(chan *memConn, 64),
		done:    make(chan struct{}),
	}
	m.listeners[addr] = l
	return l, nil
}

// Dial connects to a bound listener. Each dial gets a unique dialer
// address (mem://dialer-N), so the accept side's RemoteAddr distinguishes
// peers in stats and logs instead of collapsing them all to one name.
func (m *Mem) Dial(addr string) (Conn, error) {
	m.mu.Lock()
	l, ok := m.listeners[addr]
	dialerAddr := fmt.Sprintf("mem://dialer-%d", m.nextDialer)
	m.nextDialer++
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	// depth is how many frames a pipe holds each way before Send blocks,
	// which is how far a sender can run ahead of its receiver. The live
	// node writes ~4.6 frames per piece, so 64 frames are the ~14 pieces
	// that 256 were when it wrote 17.4. A deeper pipe only adds delay
	// between a push and the Have that tells other senders not to repeat
	// it: swarm_mem_bulk's useful upload share read 0.60 at 256, 0.65 at
	// 64, 0.70 at 32.
	const depth = 64
	aToB := make(chan protocol.Message, depth)
	bToA := make(chan protocol.Message, depth)
	dialSide := &memConn{send: aToB, recv: bToA, remote: addr, done: make(chan struct{})}
	acceptSide := &memConn{send: bToA, recv: aToB, remote: dialerAddr, done: make(chan struct{})}
	dialSide.peer, acceptSide.peer = acceptSide, dialSide
	select {
	case l.backlog <- acceptSide:
		return dialSide, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

type memListener struct {
	mem     *Mem
	addr    string
	backlog chan *memConn
	done    chan struct{}
	once    sync.Once
}

var _ Listener = (*memListener)(nil)

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.mem.mu.Lock()
		delete(l.mem.listeners, l.addr)
		l.mem.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

type memConn struct {
	send   chan protocol.Message
	recv   chan protocol.Message
	remote string
	peer   *memConn
	done   chan struct{}
	once   sync.Once
}

var _ Conn = (*memConn)(nil)
var _ BatchSender = (*memConn)(nil)

// SendBatch delivers the run in order, stopping at the first error. There
// is no buffer to flush — each message lands in the peer's channel
// directly — so batching here only saves the caller its fallback loop.
func (c *memConn) SendBatch(ms []protocol.Message) error {
	for _, m := range ms {
		if err := c.Send(m); err != nil {
			return err
		}
	}
	return nil
}

func (c *memConn) Send(m protocol.Message) error {
	// Check closed state first: with a buffered channel the send case may
	// be ready simultaneously, and select would pick at random.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	case c.send <- m:
		return nil
	}
}

func (c *memConn) Recv() (protocol.Message, error) {
	// Drain buffered messages even after close, then report ErrClosed.
	select {
	case m := <-c.recv:
		return m, nil
	default:
	}
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.done:
		return nil, ErrClosed
	case <-c.peer.done:
		// Peer closed: drain anything already buffered.
		select {
		case m := <-c.recv:
			return m, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *memConn) RemoteAddr() string { return c.remote }
