package main

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rcep"
	"rcep/internal/core/event"
	"rcep/internal/sim"
	"rcep/internal/stream"
	"rcep/internal/wire"
)

const dupRule = `
CREATE RULE r1, duplicate detection rule
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
IF true
DO INSERT INTO ALERTS VALUES ('dup', o, t1)
`

// seed7CSV renders the stream of
// "rfidsim -cases 20 -items 6 -dup 0.15 -seed 7" the way rfidsim does.
func seed7CSV() []byte {
	cfg := sim.DefaultConfig()
	cfg.Lines = 2
	cfg.CasesPerLine = 20
	cfg.ItemsPerCase = 6
	cfg.DupProb = 0.15
	cfg.Seed = 7
	var b bytes.Buffer
	for _, o := range sim.Generate(cfg).Observations {
		fmt.Fprintf(&b, "%s,%s,%.3f\n", o.Reader, o.Object, time.Duration(o.At).Seconds())
	}
	return b.Bytes()
}

// serve starts an in-process server running dupRule and returns its
// address; onDetection sees every detection.
func serve(t *testing.T, onDetection func(rcep.Detection)) string {
	t.Helper()
	srv, err := wire.NewServer(rcep.Config{Rules: dupRule, OnDetection: onDetection})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = srv.Serve(l) }()
	return l.Addr().String()
}

// feedAs feeds csv to the server at addr under the given client ID, the
// way main does, and returns the rows read, the server's stats, the
// client's last acked seq and feed's error.
func feedAs(t *testing.T, addr, id string, csv []byte, dedup time.Duration) (int, wire.Message, uint64, error) {
	t.Helper()
	var refused refusals
	c, err := wire.DialReliable(addr, wire.ReliableOptions{ClientID: id, Backoff: time.Millisecond, OnFrame: refused.observe})
	if err != nil {
		t.Fatal(err)
	}
	n, stats, err := feed(c, bytes.NewReader(csv), dedup, 0, &refused)
	return n, stats, c.Acked(), err
}

// feedServer feeds csv to a fresh in-process server running dupRule and
// returns the rows read, the server's stats, the frames the client sent
// (its last acked seq) and the server's detections in firing order.
func feedServer(t *testing.T, csv []byte, dedup time.Duration) (int, wire.Message, uint64, []string) {
	t.Helper()
	var mu sync.Mutex
	var dets []string
	addr := serve(t, func(d rcep.Detection) {
		mu.Lock()
		dets = append(dets, fmt.Sprint(d.RuleID, d.Begin, d.End, d.Bindings()))
		mu.Unlock()
	})
	n, stats, acked, err := feedAs(t, addr, "edge1", csv, dedup)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return n, stats, acked, dets
}

// reference runs csv through an optional stream.Dedup into a bare engine
// and returns the observations it ingested, the read cycles that kept at
// least one of them, and its detections.
func reference(t *testing.T, csv []byte, dedup time.Duration) (uint64, uint64, []string) {
	t.Helper()
	var dets []string
	eng, err := rcep.New(rcep.Config{Rules: dupRule, OnDetection: func(d rcep.Detection) {
		dets = append(dets, fmt.Sprint(d.RuleID, d.Begin, d.End, d.Bindings()))
	}})
	if err != nil {
		t.Fatal(err)
	}
	// cycle numbers the rows' read cycles; kept counts those with a
	// survivor, the last of them being cycle keptAt.
	var cycle, kept, keptAt uint64
	var last event.Observation
	push := func(o event.Observation) error {
		if keptAt != cycle {
			kept, keptAt = kept+1, cycle
		}
		return eng.IngestEvents([]event.Observation{o})
	}
	if dedup > 0 {
		push = stream.NewDedup(dedup, push).Push
	}
	read := func(o event.Observation) error {
		if cycle == 0 || o.Reader != last.Reader || o.At != last.At {
			cycle++
		}
		last = o
		return push(o)
	}
	if _, err := stream.ReadCSV(bytes.NewReader(csv), read); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return eng.Metrics().Observations, kept, dets
}

// TestFeedSeed7: the feed delivers the seed-7 stream as one frame per read
// cycle, and with -dedup the server sees exactly what a duplicate filter
// upstream of a bare engine lets through.
func TestFeedSeed7(t *testing.T) {
	csv := seed7CSV()
	for _, tc := range []struct {
		dedup           time.Duration
		obs, detections uint64
	}{
		{0, 1082, 77},
		{time.Second, 1005, 0},
	} {
		t.Run(fmt.Sprint("dedup=", tc.dedup), func(t *testing.T) {
			n, stats, frames, dets := feedServer(t, csv, tc.dedup)
			if n != 1082 {
				t.Fatalf("fed %d rows, want 1082", n)
			}
			if stats.Observations != tc.obs || stats.Detections != tc.detections {
				t.Fatalf("server saw %d observations and %d detections, want %d and %d",
					stats.Observations, stats.Detections, tc.obs, tc.detections)
			}
			refObs, cycles, refDets := reference(t, csv, tc.dedup)
			if stats.Observations != refObs || !reflect.DeepEqual(dets, refDets) {
				t.Fatalf("server saw %d observations and detections %v;\nreference %d and %v",
					stats.Observations, dets, refObs, refDets)
			}
			if frames != cycles {
				t.Fatalf("%d frames for %d read cycles", frames, cycles)
			}
		})
	}
}

// TestFeedGroupsReadCycles: consecutive rows with the same reader and time
// travel as one frame, and a cycle the duplicate filter empties sends
// none.
func TestFeedGroupsReadCycles(t *testing.T) {
	csv := []byte(strings.Join([]string{
		"r1,a,1.0", "r1,b,1.0", "r1,a,1.0", // one cycle with a duplicate inside
		"r2,a,1.0",
		"r1,a,1.5", // a whole cycle of duplicates
		"r1,c,3.0", "r1,d,3.0",
	}, "\n"))
	for _, tc := range []struct {
		dedup       time.Duration
		obs, frames uint64
	}{
		{0, 7, 4},
		{time.Second, 5, 3},
	} {
		n, stats, frames, _ := feedServer(t, csv, tc.dedup)
		if n != 7 || stats.Observations != tc.obs || frames != tc.frames {
			t.Errorf("dedup=%v: %d rows, %d observations in %d frames; want 7, %d in %d",
				tc.dedup, n, stats.Observations, frames, tc.obs, tc.frames)
		}
	}
}

// TestFeedFailsOnRefusedFrames: a stream behind the engine clock of a
// server that already took the seed-7 stream is refused frame by frame,
// and the feed fails once Close returns, naming the count and the first
// refusal.
func TestFeedFailsOnRefusedFrames(t *testing.T) {
	addr := serve(t, nil)
	if _, _, _, err := feedAs(t, addr, "edge1", seed7CSV(), 0); err != nil {
		t.Fatalf("seed-7 feed: %v", err)
	}
	n, _, frames, err := feedAs(t, addr, "edge2", []byte("r1,a,0.5\nr1,b,1.0\n"), 0)
	if n != 2 || frames != 2 {
		t.Fatalf("fed %d rows in %d frames, want 2 in 2", n, frames)
	}
	if err == nil || !strings.Contains(err.Error(), "refused 2 frame(s)") || !strings.Contains(err.Error(), "out of timestamp order") {
		t.Fatalf("late feed: err = %v, want 2 refused frames, the first out of order", err)
	}
}
