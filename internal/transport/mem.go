package transport

import (
	"fmt"
	"sync"

	"repro/internal/protocol"
)

// Mem is an in-process Transport: listeners live in a shared registry and
// a connection is a pair of bounded rings, one per direction. One Mem value is one isolated
// network; nodes must share the same Mem to reach each other.
//
// Messages pass by reference — no serialization, no copies: the exact
// Message value (payload slices included, typically a piece store's stored
// bytes) handed to Send is what Recv returns on the other side. Senders
// treat payloads as frozen once sent, as the node does stored piece data,
// and every conn reports FrozenPayloads, so a receiver keeps them as they
// are: over Mem one piece's bytes exist once per process, however many
// nodes store it.
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
	l := &memListener{mem: m, addr: addr, backlog: make(chan *memConn, 64), done: make(chan struct{})}
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
	a, b := new(ring), new(ring)
	a.notEmpty.L, a.notFull.L, b.notEmpty.L, b.notFull.L = &a.mu, &a.mu, &b.mu, &b.mu
	dialSide := &memConn{in: a, out: b, remote: addr}
	acceptSide := &memConn{in: b, out: a, remote: dialerAddr}
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

// depth is how many frames a pipe holds each way before Send blocks: how far
// a sender can run ahead of its receiver, some 25 pieces at the live node's
// 2.5–2.6 frames per piece. A deeper pipe only delays the Have that tells
// other senders not to repeat a push: swarm_mem_bulk's useful upload share
// read 0.60 at 256 frames, 0.65 at 64, 0.70 at 32.
const depth = 64

// ring is one direction of a pipe: a fixed ring of frames under one mutex,
// the reader waiting on notEmpty and senders on notFull. Every push signals
// the reader and every pop one sender; signalling only on the full edge
// strands all but one of several senders waiting on a full ring.
type ring struct {
	mu                sync.Mutex
	notEmpty, notFull sync.Cond
	buf               [depth]protocol.Message
	head, n           int
	closed            bool
}

// memConn is one end of a pipe; the other end's in is its out.
type memConn struct {
	in, out *ring
	remote  string
}

var _ Conn = (*memConn)(nil)
var _ BatchSender = (*memConn)(nil)
var _ FrozenPayloads = (*memConn)(nil)

// PayloadsFrozen is always true: Recv returns the very payloads a sender
// handed Send, which the Mem contract has it freeze.
func (c *memConn) PayloadsFrozen() bool { return true }

// SendBatch appends the run under one lock and wakes the reader once per
// stretch that fits; it fails with ErrClosed once either end has closed.
func (c *memConn) SendBatch(ms []protocol.Message) error {
	r := c.out
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(ms) > 0 {
		for r.n == depth && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			return ErrClosed
		}
		for ; len(ms) > 0 && r.n < depth; ms = ms[1:] {
			r.buf[(r.head+r.n)%depth] = ms[0]
			r.n++
		}
		r.notEmpty.Signal()
	}
	return nil
}

func (c *memConn) Send(m protocol.Message) error {
	one := [1]protocol.Message{m} // stays on the stack
	return c.SendBatch(one[:])
}

// Recv yields what is buffered even after either end closed, then ErrClosed.
func (c *memConn) Recv() (protocol.Message, error) {
	r := c.in
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 {
		if r.closed {
			return nil, ErrClosed
		}
		r.notEmpty.Wait()
	}
	m := r.buf[r.head]
	r.buf[r.head] = nil // drop the payload reference
	r.head, r.n = (r.head+1)%depth, r.n-1
	r.notFull.Signal()
	return m, nil
}

// Close ends both directions and wakes every waiter; it is idempotent.
func (c *memConn) Close() error {
	for _, r := range [2]*ring{c.in, c.out} {
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		r.notEmpty.Broadcast()
		r.notFull.Broadcast()
	}
	return nil
}

func (c *memConn) RemoteAddr() string { return c.remote }
