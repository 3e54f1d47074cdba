package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// exerciseTransport runs the shared contract tests against any Transport.
func exerciseTransport(t *testing.T, tr Transport, addr string) {
	t.Helper()

	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() == "" {
		t.Fatal("empty listener address")
	}

	type acceptResult struct {
		conn Conn
		err  error
	}
	accepted := make(chan acceptResult, 1)
	go func() {
		c, err := l.Accept()
		accepted <- acceptResult{c, err}
	}()

	dialer, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()

	res := <-accepted
	if res.err != nil {
		t.Fatal(res.err)
	}
	acceptor := res.conn
	defer acceptor.Close()

	// Ordered bidirectional delivery.
	for i := int32(0); i < 50; i++ {
		if err := dialer.Send(protocol.Have{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 50; i++ {
		m, err := acceptor.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.(protocol.Have).Index != i {
			t.Fatalf("out of order: got %+v want index %d", m, i)
		}
	}
	if err := acceptor.Send(protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay, Data: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	m, err := dialer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if p := m.(protocol.Piece); string(p.Data) != "abc" {
		t.Fatalf("payload %q", p.Data)
	}

	// Concurrent senders do not corrupt frames.
	var wg sync.WaitGroup
	const senders, perSender = 8, 50
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := dialer.Send(protocol.Have{Index: 7}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < senders*perSender; i++ {
			m, err := acceptor.Recv()
			if err != nil {
				recvDone <- err
				return
			}
			if m.(protocol.Have).Index != 7 {
				recvDone <- fmt.Errorf("corrupt frame: %+v", m)
				return
			}
		}
		recvDone <- nil
	}()
	wg.Wait()
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}

	// Close tears down Recv on the other side.
	if err := dialer.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	errCh := make(chan error, 1)
	go func() {
		_, err := acceptor.Recv()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv succeeded after peer close")
		}
	case <-deadline:
		t.Fatal("Recv did not observe peer close")
	}

	// Send after close errors.
	if err := dialer.Send(protocol.Bye{}); err == nil {
		t.Error("Send succeeded after close")
	}
	// Double close is fine.
	if err := dialer.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestMemTransportContract(t *testing.T) {
	exerciseTransport(t, NewMem(), "")
}

func TestTCPTransportContract(t *testing.T) {
	exerciseTransport(t, NewTCP(), "127.0.0.1:0")
}

func TestMemDialUnknownAddress(t *testing.T) {
	m := NewMem()
	if _, err := m.Dial("mem://nowhere"); err == nil {
		t.Fatal("dial to unbound address succeeded")
	}
}

func TestMemDuplicateBind(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("mem://x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := m.Listen("mem://x"); err == nil {
		t.Fatal("duplicate bind succeeded")
	}
}

func TestMemListenerCloseUnblocksAccept(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock")
	}
	// Address is released after close.
	if _, err := m.Listen(l.Addr()); err != nil {
		t.Errorf("rebind after close: %v", err)
	}
	// Dialing the closed (pre-rebind) listener path still works via the
	// registry; dialing a fully removed one fails.
	if _, err := m.Dial("mem://definitely-not-there"); err == nil {
		t.Error("dial to removed listener succeeded")
	}
}

func TestTCPListenerCloseUnblocksAccept(t *testing.T) {
	l, err := NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock")
	}
}

func TestMemRecvDrainsBufferAfterPeerClose(t *testing.T) {
	m := NewMem()
	l, _ := m.Listen("")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_ = c.Send(protocol.Have{Index: 1})
		_ = c.Send(protocol.Have{Index: 2})
		c.Close()
	}()
	dialer, err := m.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		m, err := dialer.Recv()
		if err != nil {
			break
		}
		got++
		_ = m
	}
	if got != 2 {
		t.Errorf("drained %d messages, want 2", got)
	}
}

// mustFlaky builds a Flaky transport or fails the test; the constructor only
// errors on invalid option arguments, which these tests do not pass.
func mustFlaky(t *testing.T, inner Transport, opts ...FlakyOption) *Flaky {
	t.Helper()
	f, err := NewFlaky(inner, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mustFlakyQuiet is mustFlaky for table literals where no *testing.T is in
// scope yet; it panics instead of failing the test.
func mustFlakyQuiet(inner Transport, opts ...FlakyOption) *Flaky {
	f, err := NewFlaky(inner, opts...)
	if err != nil {
		panic(err)
	}
	return f
}

func TestFlakyDropsApproximatelyAtRate(t *testing.T) {
	f := mustFlaky(t, NewMem(), WithDropProb(0.3), WithDropSeed(1))
	l, err := f.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := f.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	acceptor := <-accepted
	defer acceptor.Close()

	const sent = 5000
	counted := make(chan int, 1)
	go func() {
		received := 0
		for {
			if _, err := acceptor.Recv(); err != nil {
				break
			}
			received++
		}
		counted <- received
	}()
	for i := 0; i < sent; i++ {
		if err := dialer.Send(protocol.Have{Index: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	dialer.Close()
	received := <-counted
	frac := float64(received) / sent
	if frac < 0.65 || frac > 0.75 {
		t.Errorf("delivered fraction %.3f, want ~0.7", frac)
	}
}

func TestFlakyNeverDropsHandshake(t *testing.T) {
	// Total loss: every data message vanishes, yet the handshake survives.
	f := mustFlaky(t, NewMem(), WithDropProb(1), WithDropSeed(2))
	l, _ := f.Listen("")
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := f.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	acceptor := <-accepted
	defer acceptor.Close()
	// The sender runs beside the reader: a Mem pipe holds fewer than the
	// hundred frames sent.
	go func() {
		for i := 0; i < 50; i++ {
			if err := dialer.Send(protocol.Hello{PeerID: 1}); err != nil {
				t.Error(err)
				return
			}
			if err := dialer.Send(protocol.Bitfield{NumPieces: 1, Bits: []byte{1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		if _, err := acceptor.Recv(); err != nil {
			t.Fatalf("handshake message %d lost: %v", i, err)
		}
	}
}

// TestFlakyOptionValidation pins the constructor's argument checking: bad
// probabilities and latency ranges are errors, not silent clamps, while the
// boundary values 0 and 1 are legal.
func TestFlakyOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    []FlakyOption
		wantErr bool
	}{
		{"defaults", nil, false},
		{"zero prob", []FlakyOption{WithDropProb(0)}, false},
		{"total loss", []FlakyOption{WithDropProb(1)}, false},
		{"negative prob", []FlakyOption{WithDropProb(-0.1)}, true},
		{"prob above one", []FlakyOption{WithDropProb(1.01)}, true},
		{"latency range", []FlakyOption{WithLatency(time.Millisecond, 2*time.Millisecond)}, false},
		{"zero latency", []FlakyOption{WithLatency(0, 0)}, false},
		{"negative latency", []FlakyOption{WithLatency(-time.Millisecond, time.Millisecond)}, true},
		{"inverted latency", []FlakyOption{WithLatency(2*time.Millisecond, time.Millisecond)}, true},
		{"good then bad", []FlakyOption{WithDropSeed(7), WithDropProb(2)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFlaky(NewMem(), tc.opts...)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("constructed %+v, want error", f)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFlakyLatencyDeliversInOrder checks the delay queue's FIFO guarantee:
// messages arrive complete and in send order despite randomized transit
// times, and only after a delay at least the configured minimum.
func TestFlakyLatencyDeliversInOrder(t *testing.T) {
	const minDelay = 5 * time.Millisecond
	f := mustFlaky(t, NewMem(), WithLatency(minDelay, 15*time.Millisecond), WithDropSeed(3))
	l, err := f.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := f.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	acceptor := <-accepted
	defer acceptor.Close()

	const sent = 50
	start := time.Now()
	for i := 0; i < sent; i++ {
		if err := dialer.Send(protocol.Have{Index: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sent; i++ {
		m, err := acceptor.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if have, ok := m.(protocol.Have); !ok || have.Index != int32(i) {
			t.Fatalf("message %d arrived as %+v, want Have{%d}", i, m, i)
		}
	}
	if elapsed := time.Since(start); elapsed < minDelay {
		t.Errorf("all messages delivered in %v, below the %v minimum latency", elapsed, minDelay)
	}
}

func TestRemoteAddrNonEmpty(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
		addr string
	}{
		{"mem", NewMem(), ""},
		{"tcp", NewTCP(), "127.0.0.1:0"},
		{"flaky", mustFlakyQuiet(NewMem(), WithDropProb(0.1)), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			dialer, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer dialer.Close()
			acceptor := <-accepted
			defer acceptor.Close()
			if dialer.RemoteAddr() == "" || acceptor.RemoteAddr() == "" {
				t.Error("empty RemoteAddr")
			}
		})
	}
}

func TestTCPDialRefused(t *testing.T) {
	// A port nobody listens on: dial must fail, not hang.
	if _, err := NewTCP().Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestFlakyListenError(t *testing.T) {
	mem := NewMem()
	if _, err := mem.Listen("mem://dup"); err != nil {
		t.Fatal(err)
	}
	f := mustFlaky(t, mem, WithDropProb(0.1))
	if _, err := f.Listen("mem://dup"); err == nil {
		t.Fatal("duplicate bind through flaky succeeded")
	}
	if _, err := f.Dial("mem://nowhere"); err == nil {
		t.Fatal("flaky dial to unbound address succeeded")
	}
}

// TestMemDialerAddressesUnique pins the accept-side identity fix: every
// dialed connection must present a distinct RemoteAddr to the acceptor,
// rather than all dialers collapsing to one shared name.
func TestMemDialerAddressesUnique(t *testing.T) {
	m := NewMem()
	l, err := m.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const dials = 5
	accepted := make(chan Conn, dials)
	go func() {
		for i := 0; i < dials; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	seen := make(map[string]bool)
	for i := 0; i < dials; i++ {
		d, err := m.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		a := <-accepted
		defer a.Close()
		addr := a.RemoteAddr()
		if addr == "" {
			t.Fatal("empty accept-side RemoteAddr")
		}
		if seen[addr] {
			t.Fatalf("dialer address %q repeated across connections", addr)
		}
		seen[addr] = true
	}
}

// TestBatchSenderDelivery checks every transport's SendBatch capability:
// a batch arrives complete, in order, and frame-accurate on the far side.
func TestBatchSenderDelivery(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
		addr string
	}{
		{"mem", NewMem(), ""},
		{"tcp", NewTCP(), "127.0.0.1:0"},
		{"flaky", mustFlakyQuiet(NewMem(), WithLatency(0, time.Millisecond)), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			dialer, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer dialer.Close()
			acceptor := <-accepted
			defer acceptor.Close()

			batcher, ok := dialer.(BatchSender)
			if !ok {
				t.Fatalf("%T does not implement BatchSender", dialer)
			}
			batch := []protocol.Message{
				protocol.Have{Index: 1},
				protocol.Piece{Index: 2, RepaysKeyID: protocol.NoRepay, Data: []byte("xyz")},
				protocol.Have{Index: 3},
			}
			if err := batcher.SendBatch(batch); err != nil {
				t.Fatal(err)
			}
			for i, want := range batch {
				got, err := acceptor.Recv()
				if err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
				if got.MsgType() != want.MsgType() {
					t.Fatalf("message %d type %v, want %v", i, got.MsgType(), want.MsgType())
				}
				if p, ok := got.(protocol.Piece); ok && string(p.Data) != "xyz" {
					t.Fatalf("piece payload %q", p.Data)
				}
			}
		})
	}
}

// TestPayloadsFrozen: Mem conns report frozen payloads at both ends, and
// hand over the very bytes sent; Flaky reports what it wraps, with or
// without a delay queue; TCP decodes into scratch and does not.
func TestPayloadsFrozen(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tr     Transport
		addr   string
		frozen bool
	}{
		{"mem", NewMem(), "", true},
		{"flaky-mem", mustFlakyQuiet(NewMem()), "", true},
		{"flaky-mem-latency", mustFlakyQuiet(NewMem(), WithLatency(0, time.Millisecond)), "", true},
		{"tcp", NewTCP(), "127.0.0.1:0", false},
		{"flaky-tcp", mustFlakyQuiet(NewTCP()), "127.0.0.1:0", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			dialer, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer dialer.Close()
			acceptor := <-accepted
			defer acceptor.Close()
			if PayloadsFrozen(dialer) != tc.frozen || PayloadsFrozen(acceptor) != tc.frozen {
				t.Fatalf("PayloadsFrozen dialer %v, acceptor %v; want %v", PayloadsFrozen(dialer), PayloadsFrozen(acceptor), tc.frozen)
			}
			data := []byte("frozen piece bytes")
			if err := dialer.Send(protocol.Piece{Index: 1, RepaysKeyID: protocol.NoRepay, Data: data}); err != nil {
				t.Fatal(err)
			}
			m, err := acceptor.Recv()
			if err != nil {
				t.Fatal(err)
			}
			got := m.(protocol.Piece).Data
			if same := &got[0] == &data[0]; same != tc.frozen {
				t.Errorf("received Data is the sent slice: %v, want %v", same, tc.frozen)
			}
		})
	}
}
