package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/protocol"
)

// TCP is the real-network Transport: protocol frames over TCP connections.
type TCP struct{}

var _ Transport = TCP{}

// NewTCP returns the TCP transport.
func NewTCP() TCP { return TCP{} }

// Listen binds a TCP address; use "127.0.0.1:0" to let the kernel pick a
// port and read it back from Listener.Addr.
func (t TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &tcpListener{inner: l}, nil
}

// Dial connects to a TCP listener.
func (t TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	inner net.Listener
	once  sync.Once
}

var _ Listener = (*tcpListener)(nil)

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("transport: %w", err)
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close() error {
	var err error
	l.once.Do(func() { err = l.inner.Close() })
	return err
}

func (l *tcpListener) Addr() string { return l.inner.Addr().String() }

// tcpConn frames protocol messages over one TCP connection. Writes go
// through a bufio.Writer: Send flushes before returning (a lone message
// never sits in the buffer), while SendBatch encodes its whole run and
// flushes once at the end — flush-on-idle coalescing for the node's
// per-peer writer, which drains everything queued and then goes idle.
// Reads go through a protocol.Decoder, whose reusable scratch makes the
// steady-state receive path allocation-free (see the Conn zero-copy
// contract).
type tcpConn struct {
	inner   net.Conn
	dec     *protocol.Decoder
	writeMu sync.Mutex
	bw      *bufio.Writer
	once    sync.Once
}

var _ Conn = (*tcpConn)(nil)
var _ BatchSender = (*tcpConn)(nil)

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{
		inner: c,
		dec:   protocol.NewDecoder(bufio.NewReaderSize(c, 64<<10)),
		bw:    bufio.NewWriterSize(c, 64<<10),
	}
}

// sendErr maps closed-socket errors to the transport contract.
func sendErr(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

func (c *tcpConn) Send(m protocol.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if err := protocol.EncodeTo(c.bw, m); err != nil {
		return sendErr(err)
	}
	return sendErr(c.bw.Flush())
}

// SendBatch encodes every message into the write buffer and flushes once,
// so a drained queue of small frames (haves, receipts, keys) costs one
// syscall instead of one per frame.
func (c *tcpConn) SendBatch(ms []protocol.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	for _, m := range ms {
		if err := protocol.EncodeTo(c.bw, m); err != nil {
			return sendErr(err)
		}
	}
	return sendErr(c.bw.Flush())
}

func (c *tcpConn) Recv() (protocol.Message, error) {
	m, err := c.dec.Decode()
	if err != nil {
		if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return m, nil
}

func (c *tcpConn) Close() error {
	var err error
	c.once.Do(func() { err = c.inner.Close() })
	return err
}

func (c *tcpConn) RemoteAddr() string { return c.inner.RemoteAddr().String() }
