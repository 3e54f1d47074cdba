package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/protocol"
)

// Flaky wraps a Transport and degrades it on purpose — dropping a fraction
// of non-handshake messages and/or delaying delivery — for testing protocol
// resilience. Handshake messages (Hello, Bitfield) are never dropped — a
// connection that cannot even open tests nothing; everything after that is
// fair game, which exercises the node's recovery paths (piece re-push after
// the resend cooldown, seal re-issue, trusted key-release fallback).
type Flaky struct {
	inner      Transport
	dropProb   float64
	minLatency time.Duration
	maxLatency time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

var _ Transport = (*Flaky)(nil)

// FlakyOption configures a Flaky transport; options that reject their
// argument surface the error through NewFlaky.
type FlakyOption func(*Flaky) error

// WithDropProb drops each eligible (non-handshake) message with probability
// p. p must lie in [0, 1]; p == 1 is the documented total-loss regime —
// every data message vanishes and only the handshake survives, which is
// occasionally exactly the partition a test wants. Values outside the range
// are an error, not a silent clamp.
func WithDropProb(p float64) FlakyOption {
	return func(f *Flaky) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("transport: drop probability %g outside [0, 1]", p)
		}
		f.dropProb = p
		return nil
	}
}

// WithDropSeed fixes the drop- and latency-pattern RNG seed so a flaky run
// replays bit-for-bit.
func WithDropSeed(seed int64) FlakyOption {
	return func(f *Flaky) error {
		f.rng = rand.New(rand.NewSource(seed))
		return nil
	}
}

// WithLatency delays every sent message by a uniformly random duration in
// [min, max]. Delivery stays in order: each connection owns a FIFO queue
// drained by one dispatcher goroutine, so a message that draws a short delay
// still waits behind earlier long-delay ones. With latency enabled, Send
// returns before delivery and late inner-transport errors are discarded,
// like datagrams lost in flight.
func WithLatency(min, max time.Duration) FlakyOption {
	return func(f *Flaky) error {
		if min < 0 || max < min {
			return fmt.Errorf("transport: latency range [%v, %v] invalid", min, max)
		}
		f.minLatency, f.maxLatency = min, max
		return nil
	}
}

// NewFlaky wraps inner with the given degradations. With no options the
// transport is a transparent pass-through (drop probability 0, no latency,
// seed 1); any option rejecting its argument fails the construction.
func NewFlaky(inner Transport, opts ...FlakyOption) (*Flaky, error) {
	f := &Flaky{inner: inner, rng: rand.New(rand.NewSource(1))}
	for _, opt := range opts {
		if err := opt(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Listen wraps the inner listener so accepted connections degrade too.
func (f *Flaky) Listen(addr string) (Listener, error) {
	l, err := f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &flakyListener{inner: l, f: f}, nil
}

// Dial wraps the dialed connection.
func (f *Flaky) Dial(addr string) (Conn, error) {
	c, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return f.wrap(c), nil
}

// wrap builds the per-connection state; the delay queue and its dispatcher
// exist only when latency is configured.
func (f *Flaky) wrap(c Conn) *flakyConn {
	fc := &flakyConn{inner: c, f: f}
	if f.maxLatency > 0 {
		fc.sendq = make(chan delayedMsg, 256)
		fc.done = make(chan struct{})
		go fc.dispatch()
	}
	return fc
}

// drop decides one message's fate.
func (f *Flaky) drop(m protocol.Message) bool {
	switch m.(type) {
	case protocol.Hello, protocol.Bitfield:
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64() < f.dropProb
}

// delay draws one message's transit time from the configured range.
func (f *Flaky) delay() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.minLatency
	if span := f.maxLatency - f.minLatency; span > 0 {
		d += time.Duration(f.rng.Int63n(int64(span) + 1))
	}
	return d
}

type flakyListener struct {
	inner Listener
	f     *Flaky
}

var _ Listener = (*flakyListener)(nil)

func (l *flakyListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.wrap(c), nil
}

func (l *flakyListener) Close() error { return l.inner.Close() }
func (l *flakyListener) Addr() string { return l.inner.Addr() }

// delayedMsg is one in-flight message and its delivery due time.
type delayedMsg struct {
	m   protocol.Message
	due time.Time
}

type flakyConn struct {
	inner Conn
	f     *Flaky

	sendq chan delayedMsg // nil when latency is off
	done  chan struct{}
	once  sync.Once
}

var _ Conn = (*flakyConn)(nil)
var _ BatchSender = (*flakyConn)(nil)
var _ FrozenPayloads = (*flakyConn)(nil)

// PayloadsFrozen is the inner conn's answer: dropping and delaying a frame
// leave its payloads as the sender handed them over.
func (c *flakyConn) PayloadsFrozen() bool { return PayloadsFrozen(c.inner) }

// SendBatch feeds each message through the connection's own Send so every
// one rolls the drop dice and draws its own latency — batching must not
// change the degradation semantics the options promise.
func (c *flakyConn) SendBatch(ms []protocol.Message) error {
	for _, m := range ms {
		if err := c.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// Send drops eligible messages with the configured probability; a dropped
// message reports success, exactly like a datagram lost in flight. Survivors
// go straight through, or onto the delay queue when latency is configured.
func (c *flakyConn) Send(m protocol.Message) error {
	if c.f.drop(m) {
		return nil
	}
	if c.sendq == nil {
		return c.inner.Send(m)
	}
	select {
	case c.sendq <- delayedMsg{m: m, due: time.Now().Add(c.f.delay())}:
		return nil
	case <-c.done:
		return ErrClosed
	}
}

// dispatch delivers queued messages in FIFO order, sleeping out each one's
// remaining transit time. Close aborts the sleep so a delayed backlog cannot
// outlive the connection.
func (c *flakyConn) dispatch() {
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case d := <-c.sendq:
			if wait := time.Until(d.due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-c.done:
					return
				}
			}
			_ = c.inner.Send(d.m)
		case <-c.done:
			return
		}
	}
}

func (c *flakyConn) Recv() (protocol.Message, error) { return c.inner.Recv() }

func (c *flakyConn) Close() error {
	if c.done != nil {
		c.once.Do(func() { close(c.done) })
	}
	return c.inner.Close()
}

func (c *flakyConn) RemoteAddr() string { return c.inner.RemoteAddr() }
