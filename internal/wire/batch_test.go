package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rcep"
)

// Batch frame coverage (DESIGN.md §12): one read cycle rides one frame
// with one seq, a lone observation is a batch of one, and empty and
// oversized frames degrade predictably.

func TestBatchFrameEndToEnd(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fires := make(chan Message, 10)
	c.OnFire = func(m Message) { fires <- m }

	err = c.SendBatch([]BatchObs{
		{Reader: "dock1", Object: "p42", AtNS: 0},
		{Reader: "dock1", Object: "p42", AtNS: int64(2 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-fires:
		if m.Rule != "r1" || m.Bindings["o"] != "p42" {
			t.Fatalf("fire: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no firing from a batch frame")
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 2 || stats.Detections != 1 {
		t.Fatalf("stats after batch: %+v", stats)
	}

	// With a reorder stage configured, the framing of a stream is invisible:
	// the same stream sent one observation at a time (Send) and in batch
	// frames of several must produce the identical fire sequence, on a
	// single and on a sharded engine.
	const stagedRules = `
CREATE RULE a, dock 1 then dock 2
ON WITHIN(observation('dock1', o, t1); observation('dock2', o, t2), 10sec)
IF true
DO INSERT INTO ALERTS VALUES ('a', o, t1)
CREATE RULE b, dock 3 then dock 4
ON WITHIN(observation('dock3', o, t1); observation('dock4', o, t2), 10sec)
IF true
DO INSERT INTO ALERTS VALUES ('b', o, t1)
`
	// Late arrivals within the reorder slack; no two completions share an
	// instant.
	stream := []BatchObs{
		{Reader: "dock1", Object: "p1", AtNS: int64(sec(1))},
		{Reader: "dock3", Object: "q1", AtNS: int64(sec(1.5))},
		{Reader: "dock1", Object: "p0", AtNS: int64(sec(1.2))}, // late
		{Reader: "dock2", Object: "p1", AtNS: int64(sec(3))},
		{Reader: "dock1", Object: "p2", AtNS: int64(sec(2.5))}, // late
		{Reader: "dock4", Object: "q1", AtNS: int64(sec(4))},
		{Reader: "dock3", Object: "q2", AtNS: int64(sec(5))},
		{Reader: "dock2", Object: "p2", AtNS: int64(sec(6))},
		{Reader: "dock4", Object: "q2", AtNS: int64(sec(7))},
		{Reader: "dock1", Object: "p3", AtNS: int64(sec(8))},
	}
	runStaged := func(t *testing.T, shards, chunk int) []string {
		t.Helper()
		srv, err := NewServer(rcep.Config{Rules: stagedRules, Shards: shards},
			WithReorder(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func() { _ = srv.Serve(l) }()
		c, err := Dial(l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		// Fires arrive before the stats reply Close waits for, on the
		// read goroutine that also delivers it.
		var fires []string
		c.OnFire = func(m Message) {
			fires = append(fires, fmt.Sprintf("%s %d-%d %v", m.Rule, m.BeginNS, m.EndNS, m.Bindings))
		}
		for lo := 0; lo < len(stream); lo += max(chunk, 1) {
			if chunk == 0 {
				o := stream[lo]
				err = c.Send(o.Reader, o.Object, time.Duration(o.AtNS))
			} else {
				err = c.SendBatch(stream[lo:min(lo+chunk, len(stream))])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Advance(sec(60)); err != nil { // releases the reorder buffer
			t.Fatal(err)
		}
		stats, err := c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Observations != 10 {
			t.Fatalf("shards=%d chunk=%d: %d observations reached the engine, want 10", shards, chunk, stats.Observations)
		}
		return fires
	}
	for _, shards := range []int{0, 4} {
		want := runStaged(t, shards, 0)
		if len(want) != 4 {
			t.Fatalf("shards=%d: single observations fired %d times, want 4: %v", shards, len(want), want)
		}
		for _, chunk := range []int{1, 3, len(stream)} {
			if got := runStaged(t, shards, chunk); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d: batch frames of %d fired\n got %v\nwant %v", shards, chunk, got, want)
			}
		}
	}
}

func TestBatchFrameEmpty(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(nil); err != nil {
		t.Fatalf("empty SendBatch: %v", err)
	}
	// The connection stays usable and the empty batch counted nothing.
	if err := c.Send("dock1", "p1", sec(1)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 1 {
		t.Fatalf("Observations = %d after empty batch + one observation, want 1", stats.Observations)
	}
}

// TestBatchFrameOversized pins the rejection contract: a batch above
// MaxBatchFrame draws an error reply BEFORE its seq is claimed, so the
// sender can re-chunk and resend under the same seq without the dedupe
// layer swallowing the retry.
func TestBatchFrameOversized(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	oversized(t, conn, func(m Message) error { return enc.Encode(m) })
}

// TestBatchFrameOversizedBinary is the same contract for a binary batch
// frame: the server consumes the whole frame, so the connection and its
// symbol table stay in step for the resend.
func TestBatchFrameOversizedBinary(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var first [1]byte
	tap := func(b []byte) (int, error) {
		if first[0] == 0 {
			first[0] = b[0]
		}
		return conn.Write(b)
	}
	w := NewFrameWriter(writerFunc(tap))
	oversized(t, conn, func(m Message) error { return w.Send(&m) })
	if first[0] != batchTag {
		t.Fatalf("first frame starts with %q, want the binary batch tag", first[0])
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }

// oversized sends a batch of MaxBatchFrame+1 under seq 1, expects an
// error, resends two observations under the same seq, expects them
// applied.
func oversized(t *testing.T, conn net.Conn, send func(Message) error) {
	t.Helper()
	fr := NewFrameReader(conn)
	big := make([]BatchObs, MaxBatchFrame+1)
	for i := range big {
		big[i] = BatchObs{Reader: "dock1", Object: "p1", AtNS: int64(i)}
	}
	if err := send(Message{Type: "batch", ClientID: "f1", Seq: 1, Batch: big}); err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := fr.Read(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != "error" {
		t.Fatalf("oversized batch: reply %+v, want error", m)
	}

	// Re-chunked resend under the SAME seq must apply as fresh. Rule
	// firings are broadcast on every connection, so skip past those to
	// the ack.
	if err := send(Message{Type: "batch", ClientID: "f1", Seq: 1, Batch: big[:2]}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := fr.Read(&m); err != nil {
			t.Fatal(err)
		}
		if m.Type == "fire" {
			continue
		}
		break
	}
	if m.Type != "ack" || m.Seq != 1 {
		t.Fatalf("re-chunked resend: reply %+v, want ack seq 1", m)
	}
	if err := send(Message{Type: "bye"}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := fr.Read(&m); err != nil {
			t.Fatalf("no stats after bye: %v", err)
		}
		if m.Type == "stats" {
			break
		}
	}
	if m.Observations != 2 {
		t.Fatalf("Observations = %d after re-chunked batch, want 2", m.Observations)
	}
}

// TestSendBatchSplitsAtMaxBatchFrame: a read cycle larger than
// MaxBatchFrame travels as several frames instead of one the server
// refuses. A refused frame's seq is never claimed, so the next frame's
// cumulative ack would release it from the ring unapplied — the cycle
// would be lost without an error from SendBatch, Flush or Close.
func TestSendBatchSplitsAtMaxBatchFrame(t *testing.T) {
	// A rule no observation here matches: the engine only counts.
	const quietRule = `
CREATE RULE q, never matched
ON WITHIN(observation('nowhere', o, t1); observation('nowhere', o, t2), 5sec)
IF true
DO INSERT INTO ALERTS VALUES ('q', o, t1)
`
	big := make([]BatchObs, MaxBatchFrame+1)
	for i := range big {
		big[i] = BatchObs{Reader: "dock1", Object: "p" + strconv.Itoa(i), AtNS: int64(i)}
	}
	one := []BatchObs{{Reader: "dock1", Object: "last", AtNS: int64(len(big))}}
	const want = MaxBatchFrame + 2

	t.Run("reliable", func(t *testing.T) {
		_, addr := startServer(t, rcep.Config{Rules: quietRule})
		var errFrames atomic.Int32
		c, err := DialReliable(addr, ReliableOptions{
			ClientID: "feed-big",
			OnFrame: func(m Message) {
				if m.Type == "error" {
					errFrames.Add(1)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Wait out the hello exchange so the feed is in its steady state.
		if err := c.Advance(0); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.SendBatch(big); err != nil {
			t.Fatal(err)
		}
		if err := c.SendBatch(one); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Observations != want || errFrames.Load() != 0 {
			t.Fatalf("Observations = %d with %d error frames, want %d and none", stats.Observations, errFrames.Load(), want)
		}
	})
	t.Run("plain", func(t *testing.T) {
		_, addr := startServer(t, rcep.Config{Rules: quietRule})
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendBatch(big); err != nil {
			t.Fatal(err)
		}
		if err := c.SendBatch(one); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Close()
		if err != nil {
			t.Fatal(err)
		}
		select {
		case m, ok := <-c.result:
			if ok {
				t.Fatalf("unexpected reply %+v", m)
			}
		default:
		}
		if stats.Observations != want {
			t.Fatalf("Observations = %d, want %d", stats.Observations, want)
		}
	})
}

// FuzzBatchFrame throws raw bytes at a live connection handler — torn
// JSON, truncated batch arrays, hostile field values — and requires
// only that the handler neither panics nor hangs. Seeds cover the
// interesting shapes: a healthy batch, an empty one, torn frames,
// out-of-order timestamps, a legacy "obs" frame (refused as an unknown
// type), and hostile binary batch frames (binarySeeds).
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte(`{"type":"batch","batch":[{"reader":"r1","object":"a","at_ns":0},{"reader":"r1","object":"a","at_ns":1000}]}`))
	f.Add([]byte(`{"type":"batch","batch":[]}`))
	f.Add([]byte(`{"type":"batch","batch":[{"reader":"r1","obj`))
	f.Add([]byte(`{"type":"batch"`))
	f.Add([]byte(`{"type":"batch","batch":[{"reader":"r1","object":"a","at_ns":5000},{"reader":"r1","object":"a","at_ns":0}]}`))
	f.Add([]byte("{\"type\":\"batch\",\"batch\":[]}\n{\"type\":\"obs\",\"reader\":\"r1\",\"object\":\"b\",\"at_ns\":1}"))
	f.Add([]byte{0x00, 0xff, 0x7b})
	for _, seed := range binarySeeds() {
		f.Add(seed)
	}

	srv, err := NewServer(rcep.Config{Rules: dupRule})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.handle(server)
			close(done)
		}()
		go io.Copy(io.Discard, client) // drain replies so the synchronous pipe never wedges
		_ = client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data)
		_, _ = client.Write([]byte("\n"))
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler hung on fuzzed batch frame")
		}
	})
}
