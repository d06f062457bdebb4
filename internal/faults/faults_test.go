package faults

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// drainConn returns a net.Pipe endpoint whose peer is continuously
// drained, so writes never block.
func drainConn(t *testing.T) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() { _, _ = io.Copy(io.Discard, b) }()
	return a
}

// writeUntilReset writes fixed frames until the injected reset, returning
// the number of whole frames that got through.
func writeUntilReset(t *testing.T, in *Injector) (frames int, err error) {
	t.Helper()
	c := in.Conn(drainConn(t))
	for i := 0; i < 10000; i++ {
		if _, err := c.Write([]byte("frame-payload\n")); err != nil {
			return i, err
		}
	}
	t.Fatal("no reset within 10000 writes")
	return 0, nil
}

func TestConnResetIsDeterministic(t *testing.T) {
	// 20±10 frames of 14 bytes.
	mk := func() *Injector { return New(11, WithConnReset(280, 140)) }
	var first []int
	for run := 0; run < 2; run++ {
		in := mk()
		var got []int
		for conn := 0; conn < 5; conn++ {
			n, err := writeUntilReset(t, in)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("reset error does not wrap ErrInjected: %v", err)
			}
			got = append(got, n)
		}
		if run == 0 {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("same seed, different schedule: %v vs %v", first, got)
			}
		}
	}
}

func TestConnWithoutResetPassesThrough(t *testing.T) {
	in := New(1) // no options: no faults
	c := in.Conn(drainConn(t))
	for i := 0; i < 1000; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("fault injected with empty config: %v", err)
		}
	}
	if in.Resets() != 0 {
		t.Fatalf("spurious resets: %d", in.Resets())
	}
}

func TestPartialWriteTearsFrame(t *testing.T) {
	// partialProb 1: the reset write delivers a strict prefix. The reset
	// falls on byte 46, inside the fifth 10-byte frame.
	in := New(3, WithConnReset(46, 0), WithPartialWrites(1))
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	received := make(chan []byte, 1)
	go func() {
		buf, _ := io.ReadAll(b)
		received <- buf
	}()
	c := in.Conn(a)
	frame := []byte("0123456789")
	var n int
	var err error
	writes := 0
	for {
		n, err = c.Write(frame)
		writes++
		if err != nil {
			break
		}
	}
	if writes != 5 {
		t.Fatalf("reset after %d writes, want 5", writes)
	}
	if !errors.Is(err, ErrInjected) || n != 5 {
		t.Fatalf("expected a frame torn after 5 bytes: n=%d err=%v", n, err)
	}
	got := <-received
	want := 4*len(frame) + n
	if len(got) != want {
		t.Fatalf("peer saw %d bytes, want %d (4 whole frames + %d-byte tear)", len(got), want, n)
	}
}

// TestConnResetCountsBytes: the reset falls on the same byte of the
// stream whatever the write size, so a writer that coalesces frames is
// torn as often, and at the same offset, as one that writes them singly.
func TestConnResetCountsBytes(t *testing.T) {
	stream := bytes.Repeat([]byte("0123456789abcdef"), 250) // 4000 bytes
	for _, size := range []int{1, 7, 64, 1499, 1500, len(stream)} {
		for _, partial := range []float64{0, 1} {
			in := New(9, WithConnReset(1500, 0), WithPartialWrites(partial))
			a, b := net.Pipe()
			received := make(chan []byte, 1)
			go func() {
				buf, _ := io.ReadAll(b)
				received <- buf
			}()
			c := in.Conn(a)
			sent := 0
			var err error
			for err == nil && sent < len(stream) {
				var n int
				n, err = c.Write(stream[sent:min(sent+size, len(stream))])
				sent += n
			}
			got := <-received
			a.Close()
			b.Close()
			// The crossing write starts at a multiple of size; without a
			// partial delivery none of it gets through.
			want := 1499
			if partial == 0 {
				want = 1499 / size * size
			}
			if !errors.Is(err, ErrInjected) || in.Resets() != 1 || len(got) != want || sent != want {
				t.Fatalf("writes of %d, partial %v: peer saw %d bytes, writer counted %d, resets %d (%v); want %d",
					size, partial, len(got), sent, in.Resets(), err, want)
			}
			if !bytes.Equal(got, stream[:want]) {
				t.Fatalf("writes of %d: delivered bytes differ from the stream prefix", size)
			}
		}
	}
}

func TestCorruptAlwaysDiffers(t *testing.T) {
	in := New(7)
	frame := []byte{1, 0x3D, 0, 0, 0, 10, 0, 0, 0, 1}
	for i := 0; i < 200; i++ {
		c := in.Corrupt(frame)
		if bytes.Equal(c, frame) {
			t.Fatalf("corruption %d returned the original frame", i)
		}
	}
	// Determinism across injectors.
	a := New(13).Corruptions(frame, 20)
	b := New(13).Corruptions(frame, 20)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, different corruption at %d: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestWriteDelayStaysBounded(t *testing.T) {
	in := New(2, WithWriteDelay(1, 5*time.Millisecond))
	c := in.Conn(drainConn(t))
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("delays unbounded: %v", elapsed)
	}
}
