// Package faults injects deterministic, seeded failures into the
// edge-to-engine path so resilience claims can be tested instead of
// assumed: TCP connection resets at a byte offset, write delays and
// corrupt LLRP frames. Every failure the package produces wraps
// ErrInjected, so tests can tell injected faults apart from real ones.
//
// All randomness flows from the seed passed to New; two injectors built
// with the same seed and options produce the same fault schedule, which
// keeps chaos tests reproducible.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected is wrapped by every failure this package produces.
var ErrInjected = errors.New("faults: injected failure")

// Option tunes an Injector.
type Option func(*config)

type config struct {
	resetEvery  int // the written byte a connection resets on (0 = never)
	resetJitter int
	partialProb float64 // chance a reset delivers the crossing write's prefix
	delayProb   float64
	maxDelay    time.Duration
}

// WithConnReset makes each wrapped connection die on its every±jitter-th
// written byte. Counting bytes, not Write calls, keeps the schedule
// independent of how a writer batches its frames.
func WithConnReset(every, jitter int) Option {
	return func(c *config) { c.resetEvery, c.resetJitter = every, jitter }
}

// WithPartialWrites makes a fraction p of injected resets first deliver
// the crossing write's bytes up to the reset offset, modelling a
// connection torn mid-write; the other resets deliver none of that write.
func WithPartialWrites(p float64) Option {
	return func(c *config) { c.partialProb = p }
}

// WithWriteDelay delays a fraction p of writes by up to max.
func WithWriteDelay(p float64, max time.Duration) Option {
	return func(c *config) { c.delayProb, c.maxDelay = p, max }
}

// Injector is a seeded fault schedule shared by the connections it
// wraps. Safe for concurrent use.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	cfg    config
	resets int
}

// New builds an injector from a seed and options.
func New(seed int64, opts ...Option) *Injector {
	in := &Injector{rng: rand.New(rand.NewSource(seed))}
	for _, o := range opts {
		o(&in.cfg)
	}
	return in
}

// Resets reports how many connection resets have been injected.
func (in *Injector) Resets() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.resets
}

// drawLocked samples every±jitter with a floor of 1; 0 means "never".
func (in *Injector) drawLocked(every, jitter int) int {
	if every <= 0 {
		return 0
	}
	n := every
	if jitter > 0 {
		n += in.rng.Intn(2*jitter+1) - jitter
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Conn wraps c with the injector's write-fault schedule. Reads pass
// through untouched; after an injected reset the underlying connection
// is closed and every further operation fails.
func (in *Injector) Conn(c net.Conn) net.Conn {
	in.mu.Lock()
	defer in.mu.Unlock()
	return &faultConn{Conn: c, in: in, bytesLeft: in.drawLocked(in.cfg.resetEvery, in.cfg.resetJitter)}
}

// Dialer wraps a dial function so every connection it opens carries the
// injector's fault schedule — the natural hook for a reconnecting client.
func (in *Injector) Dialer(dial func() (net.Conn, error)) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return in.Conn(c), nil
	}
}

type faultConn struct {
	net.Conn
	in        *Injector
	bytesLeft int // the reset falls on this byte of the remaining stream; 0 = never
	dead      bool
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.in.mu.Lock()
	if c.dead {
		c.in.mu.Unlock()
		return 0, fmt.Errorf("write on reset connection: %w", ErrInjected)
	}
	var delay time.Duration
	if c.in.cfg.delayProb > 0 && c.in.rng.Float64() < c.in.cfg.delayProb && c.in.cfg.maxDelay > 0 {
		delay = time.Duration(c.in.rng.Int63n(int64(c.in.cfg.maxDelay)) + 1)
	}
	reset, partial := false, 0
	if c.bytesLeft > 0 {
		if len(p) < c.bytesLeft {
			c.bytesLeft -= len(p)
		} else {
			// This write holds the reset byte: at most the bytes before
			// it get through.
			reset, c.dead = true, true
			c.in.resets++
			if c.in.rng.Float64() < c.in.cfg.partialProb {
				partial = c.bytesLeft - 1
			}
		}
	}
	c.in.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if !reset {
		return c.Conn.Write(p)
	}
	n := 0
	if partial > 0 {
		n, _ = c.Conn.Write(p[:partial])
	}
	c.Conn.Close()
	return n, fmt.Errorf("connection reset after %d of %d bytes: %w", n, len(p), ErrInjected)
}

// Corrupt returns a mutated copy of an encoded frame: truncation, bit
// flips, length-field tampering, or header tampering, chosen by the
// seeded schedule. The input is never modified; the output always
// differs from the input.
func (in *Injector) Corrupt(frame []byte) []byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.corruptLocked(frame)
}

func (in *Injector) corruptLocked(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	if len(out) == 0 {
		return []byte{0xFF}
	}
	switch in.rng.Intn(5) {
	case 0: // truncate
		if len(out) == 1 {
			return nil
		}
		return out[:in.rng.Intn(len(out)-1)+1]
	case 1: // flip one bit anywhere
		i := in.rng.Intn(len(out))
		out[i] ^= 1 << uint(in.rng.Intn(8))
	case 2: // tamper with the length field (bytes 2..5 of an LLRP header)
		if len(out) >= 6 {
			out[2+in.rng.Intn(4)] ^= byte(1 + in.rng.Intn(255))
		} else {
			out[0] ^= 0x80
		}
	case 3: // break the version byte
		out[0] ^= byte(1 + in.rng.Intn(255))
	default: // append trailing garbage
		extra := make([]byte, 1+in.rng.Intn(8))
		in.rng.Read(extra)
		out = append(out, extra...)
	}
	return out
}

// Corruptions returns n independent corruptions of frame — fuzz-seed
// material for decoder error paths.
func (in *Injector) Corruptions(frame []byte, n int) [][]byte {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([][]byte, n)
	for i := range out {
		out[i] = in.corruptLocked(frame)
	}
	return out
}
