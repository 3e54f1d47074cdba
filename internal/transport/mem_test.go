package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
)

// memPair returns both ends of one Mem connection, closed at cleanup.
func memPair(tb testing.TB) (dialer, acceptor Conn) {
	tb.Helper()
	m := NewMem()
	l, err := m.Listen("")
	if err != nil {
		tb.Fatal(err)
	}
	defer l.Close()
	if dialer, err = m.Dial(l.Addr()); err != nil {
		tb.Fatal(err)
	}
	if acceptor, err = l.Accept(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		dialer.Close()
		acceptor.Close()
	})
	return dialer, acceptor
}

// fillPipe sends depth frames, which must all fit without a reader.
func fillPipe(t *testing.T, c Conn) {
	t.Helper()
	for i := 0; i < depth; i++ {
		if err := c.Send(protocol.Have{Index: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// returns runs f on its own goroutine and yields its error once it returns.
func returns(f func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	return done
}

// quietFor is how long a blocked call is watched to show it stays blocked;
// a wrong wake-up releases it within microseconds, so a slow scheduler can
// only make the check pass.
const quietFor = 20 * time.Millisecond

func expectBlocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) while it should block", what, err)
	case <-time.After(quietFor):
	}
}

func expectReturned(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5 s", what)
		return nil
	}
}

// TestMemPipeBlocksPastDepth: the pipe holds depth unread frames; the next
// Send waits for one Recv, and everything arrives in order.
func TestMemPipeBlocksPastDepth(t *testing.T) {
	dialer, acceptor := memPair(t)
	fillPipe(t, dialer)
	sent := returns(func() error { return dialer.Send(protocol.Have{Index: depth}) })
	expectBlocked(t, sent, "a Send past the pipe's depth")
	for i := 0; i <= depth; i++ {
		m, err := acceptor.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(protocol.Have).Index; got != int32(i) {
			t.Fatalf("frame %d carries index %d", i, got)
		}
		if i == 0 {
			if err := expectReturned(t, sent, "the Send after one Recv"); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMemPipeManySenders: eight senders blocked on a full pipe behind a slow
// reader all finish, and no frame is lost or torn. Waking one sender per
// pop is what keeps them moving; a wake-up only when the pipe stops being
// full strands all but one.
func TestMemPipeManySenders(t *testing.T) {
	dialer, acceptor := memPair(t)
	fillPipe(t, dialer)
	const senders, perSender = 8, 200
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := dialer.Send(protocol.Have{Index: int32(1000 + s)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	read := returns(func() error {
		counts := make(map[int32]int)
		for i := 0; i < depth+senders*perSender; i++ {
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond) // a reader slower than its senders
			}
			m, err := acceptor.Recv()
			if err != nil {
				return err
			}
			counts[m.(protocol.Have).Index]++
		}
		for s := 0; s < senders; s++ {
			if counts[int32(1000+s)] != perSender {
				return errors.New("a sender's frames went missing")
			}
		}
		return nil
	})
	if err := expectReturned(t, read, "the reader of 8 senders"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestMemCloseUnblocks: closing either end releases a Send waiting on a full
// pipe and a Recv waiting on an empty one, both with ErrClosed.
func TestMemCloseUnblocks(t *testing.T) {
	for _, closer := range []string{"sender's end", "receiver's end"} {
		t.Run(closer, func(t *testing.T) {
			dialer, acceptor := memPair(t)
			fillPipe(t, dialer)
			sent := returns(func() error { return dialer.Send(protocol.Have{}) })
			received := returns(func() error { _, err := dialer.Recv(); return err })
			expectBlocked(t, sent, "a Send on a full pipe")
			expectBlocked(t, received, "a Recv on an empty pipe")
			if closer == "sender's end" {
				dialer.Close()
			} else {
				acceptor.Close()
			}
			for what, done := range map[string]<-chan error{"Send": sent, "Recv": received} {
				if err := expectReturned(t, done, "a "+what+" after Close"); !errors.Is(err, ErrClosed) {
					t.Errorf("%s returned %v, want ErrClosed", what, err)
				}
			}
		})
	}
}

// BenchmarkMemPipe is the pipe's cost per frame against a concurrent reader:
// one writer drain of six frames (what the live node's writers push per
// wake-up) through SendBatch, and single frames through Send. Neither may
// allocate.
func BenchmarkMemPipe(b *testing.B) {
	piece := protocol.Message(protocol.Piece{Index: 7, RepaysKeyID: protocol.NoRepay, Data: make([]byte, 1024)})
	for _, row := range []struct {
		name   string
		frames int
	}{{"SendBatch6", 6}, {"Send", 1}} {
		b.Run(row.name, func(b *testing.B) {
			dialer, acceptor := memPair(b)
			batch := make([]protocol.Message, row.frames)
			for i := range batch {
				batch[i] = piece
			}
			read := returns(func() error {
				for i := 0; i < b.N*row.frames; i++ {
					if _, err := acceptor.Recv(); err != nil {
						return err
					}
				}
				return nil
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if row.frames == 1 {
					err = dialer.Send(piece)
				} else {
					err = dialer.(BatchSender).SendBatch(batch)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := <-read; err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*row.frames), "ns/frame")
		})
	}
}
