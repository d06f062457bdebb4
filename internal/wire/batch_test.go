package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"rcep"
)

// Batch frame coverage (DESIGN.md §12): one read cycle rides one frame
// with one seq, empty and oversized frames degrade predictably, and the
// reliable client negotiates the feature before using it.

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

	// With filter stages configured, an obs frame is a batch of one through
	// the same hand-off: the same stream sent as obs frames and as batch
	// frames must produce the identical fire sequence, on a single and on a
	// sharded engine.
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
	// Duplicate reads (dropped by dedup) and late arrivals within the
	// reorder slack; no two completions share an instant.
	stream := []BatchObs{
		{Reader: "dock1", Object: "p1", AtNS: int64(sec(1))},
		{Reader: "dock3", Object: "q1", AtNS: int64(sec(1.5))},
		{Reader: "dock1", Object: "p1", AtNS: int64(sec(1.2))}, // late duplicate
		{Reader: "dock2", Object: "p1", AtNS: int64(sec(3))},
		{Reader: "dock1", Object: "p2", AtNS: int64(sec(2.5))}, // late
		{Reader: "dock4", Object: "q1", AtNS: int64(sec(4))},
		{Reader: "dock4", Object: "q1", AtNS: int64(sec(4.1))}, // duplicate
		{Reader: "dock3", Object: "q2", AtNS: int64(sec(5))},
		{Reader: "dock2", Object: "p2", AtNS: int64(sec(6))},
		{Reader: "dock4", Object: "q2", AtNS: int64(sec(7))},
		{Reader: "dock1", Object: "p3", AtNS: int64(sec(8))},
	}
	runStaged := func(t *testing.T, shards, chunk int) []string {
		t.Helper()
		srv, err := NewServer(rcep.Config{Rules: stagedRules, Shards: shards},
			WithDedup(500*time.Millisecond), WithReorder(2*time.Second))
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
		if stats.Observations != 9 { // 11 sent, 2 duplicates dropped
			t.Fatalf("shards=%d chunk=%d: %d observations reached the engine, want 9", shards, chunk, stats.Observations)
		}
		var fires []string
		for _, m := range c.Firings() {
			fires = append(fires, fmt.Sprintf("%s %d-%d %v", m.Rule, m.BeginNS, m.EndNS, m.Bindings))
		}
		return fires
	}
	for _, shards := range []int{0, 4} {
		want := runStaged(t, shards, 0)
		if len(want) != 4 {
			t.Fatalf("shards=%d: obs frames fired %d times, want 4: %v", shards, len(want), want)
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
		t.Fatalf("Observations = %d after empty batch + one obs, want 1", stats.Observations)
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
	dec := json.NewDecoder(bufio.NewReader(conn))

	big := make([]BatchObs, MaxBatchFrame+1)
	for i := range big {
		big[i] = BatchObs{Reader: "dock1", Object: "p1", AtNS: int64(i)}
	}
	if err := enc.Encode(Message{Type: "batch", ClientID: "f1", Seq: 1, Batch: big}); err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != "error" {
		t.Fatalf("oversized batch: reply %+v, want error", m)
	}

	// Re-chunked resend under the SAME seq must apply as fresh. Rule
	// firings are broadcast on every connection, so skip past those to
	// the ack.
	if err := enc.Encode(Message{Type: "batch", ClientID: "f1", Seq: 1, Batch: big[:2]}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := dec.Decode(&m); err != nil {
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
	if err := enc.Encode(Message{Type: "bye"}); err != nil {
		t.Fatal(err)
	}
	for {
		if err := dec.Decode(&m); err != nil {
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

func TestReliableBatchNegotiation(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := DialReliable(addr, ReliableOptions{ClientID: "feed-b", Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch([]BatchObs{
		{Reader: "dock1", Object: "p7", AtNS: 0},
		{Reader: "dock1", Object: "p7", AtNS: int64(time.Second)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.BatchNegotiated() {
		t.Fatal("server advertises batch but client did not negotiate it")
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 2 {
		t.Fatalf("Observations = %d via reliable batch, want 2", stats.Observations)
	}
}

// FuzzBatchFrame throws raw bytes at a live connection handler — torn
// JSON, truncated batch arrays, hostile field values — and requires
// only that the handler neither panics nor hangs. Seeds cover the
// interesting shapes: a healthy batch, an empty one, torn frames, and
// out-of-order timestamps.
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte(`{"type":"batch","batch":[{"reader":"r1","object":"a","at_ns":0},{"reader":"r1","object":"a","at_ns":1000}]}`))
	f.Add([]byte(`{"type":"batch","batch":[]}`))
	f.Add([]byte(`{"type":"batch","batch":[{"reader":"r1","obj`))
	f.Add([]byte(`{"type":"batch"`))
	f.Add([]byte(`{"type":"batch","batch":[{"reader":"r1","object":"a","at_ns":5000},{"reader":"r1","object":"a","at_ns":0}]}`))
	f.Add([]byte("{\"type\":\"batch\",\"batch\":[]}\n{\"type\":\"obs\",\"reader\":\"r1\",\"object\":\"b\",\"at_ns\":1}"))
	f.Add([]byte{0x00, 0xff, 0x7b})

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
