package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
	"rcep/internal/wire"
)

// Coordinator → worker framing: observations travel only in batch
// frames, the worker bounds them like wire.Server, and a sequenced frame
// it cannot apply is refused without being claimed.

// dialWorker opens a raw protocol connection to a worker, past its boot
// announcement.
func dialWorker(t *testing.T, addr string) (net.Conn, *json.Encoder, *wire.FrameReader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := readBoot(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	return conn, json.NewEncoder(conn), wire.NewFrameReader(conn)
}

func assignFeed(t *testing.T, enc *json.Encoder, fr *wire.FrameReader, id string) {
	t.Helper()
	if err := enc.Encode(wire.Message{Type: "assign", ClientID: id, Seq: 1, Shard: 0}); err != nil {
		t.Fatal(err)
	}
	var m wire.Message
	if err := fr.Read(&m); err != nil {
		t.Fatal(err)
	}
	if m.Type != "ack" || m.Seq != 1 {
		t.Fatalf("assign: reply %+v, want ack 1", m)
	}
}

// TestWorkerRejectsOversizedBatch: a batch frame above wire.MaxBatchFrame
// draws an error before its seq is claimed — no ack, nothing applied —
// exactly as wire.Server refuses one.
func TestWorkerRejectsOversizedBatch(t *testing.T) {
	t.Parallel()
	rules := genRules(rand.New(rand.NewSource(3)), 3)
	p := newWorkerProc(t, WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf})
	defer p.kill()
	_, enc, fr := dialWorker(t, p.addr)
	const id = "coord.big.s0.e1"
	assignFeed(t, enc, fr, id)

	big := make([]wire.BatchObs, wire.MaxBatchFrame+1)
	for i := range big {
		// An hour apart: every rule window expires between observations,
		// so a worker that wrongly applies the frame does so quickly.
		big[i] = wire.BatchObs{Reader: "r0", Object: "a", AtNS: int64(i) * int64(time.Hour)}
	}
	if err := enc.Encode(wire.Message{Type: "batch", ClientID: id, Seq: 2, Batch: big}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(wire.Message{Type: "bye", ClientID: id}); err != nil {
		t.Fatal(err)
	}
	var errs int
	for {
		var m wire.Message
		if err := fr.Read(&m); err != nil {
			t.Fatalf("no stats after bye: %v", err)
		}
		switch m.Type {
		case "error":
			errs++
		case "ack":
			t.Fatalf("oversized batch acked: %+v", m)
		}
		if m.Type == "stats" {
			if errs != 1 || m.Observations != 0 {
				t.Fatalf("%d error replies and %d observations applied, want 1 and 0", errs, m.Observations)
			}
			return
		}
	}
}

// TestWorkerRefusesUnknownSequencedFrame: a sequenced frame of a type the
// worker does not know — a legacy "obs" frame among them — gets an error
// and the connection closes, so the advance behind it is never applied
// and its cumulative ack cannot release the refused frame.
func TestWorkerRefusesUnknownSequencedFrame(t *testing.T) {
	t.Parallel()
	rules := genRules(rand.New(rand.NewSource(3)), 3)
	p := newWorkerProc(t, WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf})
	defer p.kill()
	for _, tc := range []struct{ name, frame string }{
		{"bogus", `{"type":"bogus","client_id":"%s","seq":2}`},
		{"legacy-obs", `{"type":"obs","reader":"r0","object":"a","at_ns":0,"client_id":"%s","seq":2}`},
	} {
		id := "coord.unknown." + tc.name
		conn, enc, fr := dialWorker(t, p.addr)
		assignFeed(t, enc, fr, id)
		if _, err := fmt.Fprintf(conn, tc.frame+"\n", id); err != nil {
			t.Fatal(err)
		}
		var m wire.Message
		if err := fr.Read(&m); err != nil || m.Type != "error" {
			t.Fatalf("%s: reply %+v (%v), want error", tc.name, m, err)
		}
		_ = enc.Encode(wire.Message{Type: "advance", ClientID: id, Seq: 3, AtNS: 1})
		var next wire.Message
		if err := fr.Read(&next); err == nil {
			t.Fatalf("%s: connection left open, next reply %+v", tc.name, next)
		} else if ne := (net.Error)(nil); errors.As(err, &ne) && ne.Timeout() {
			t.Fatalf("%s: connection left open: %v", tc.name, err)
		}
		// A fresh connection's hello shows nothing past the assign was
		// claimed.
		_, enc2, fr2 := dialWorker(t, p.addr)
		if err := enc2.Encode(wire.Message{Type: "hello", ClientID: id}); err != nil {
			t.Fatal(err)
		}
		if err := fr2.Read(&m); err != nil || m.Type != "ack" || m.Seq != 1 {
			t.Fatalf("%s: hello answered %+v (%v), want ack 1", tc.name, m, err)
		}
	}
}

// frameCounter counts the frames of each type written on a connection.
// A write may carry several frames, or end inside one, so the written
// bytes go through a pipe to a wire.FrameReader, which decodes them as
// the worker does.
type frameCounter struct {
	net.Conn
	pw *io.PipeWriter
}

func countFrames(conn net.Conn, mu *sync.Mutex, counts map[string]int) *frameCounter {
	pr, pw := io.Pipe()
	go func() {
		fr := wire.NewFrameReader(pr)
		var m wire.Message
		for fr.Read(&m) == nil {
			mu.Lock()
			counts[m.Type]++
			mu.Unlock()
		}
		pr.Close() // a later write fails rather than blocks
	}()
	return &frameCounter{Conn: conn, pw: pw}
}

func (c *frameCounter) Write(b []byte) (int, error) {
	_, _ = c.pw.Write(b)
	return c.Conn.Write(b)
}

func (c *frameCounter) Close() error {
	c.pw.Close()
	return c.Conn.Close()
}

// TestHandoffReplayShipsBatches: re-placing a shard replays its journal
// as the frames first shipped — each run of observations in batch frames
// of at most maxShipBatch and each advance in its own frame, not one
// frame per observation — and the replacement still detects exactly what
// a single engine does.
func TestHandoffReplayShipsBatches(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(11))
	rules := genRules(r, 4)
	stream := genStream(r, 900)
	base := WorkerConfig{Rules: rules, Shards: 1, Groups: genGroups, TypeOf: genTypeOf}
	procs := []*workerProc{newWorkerProc(t, base), newWorkerProc(t, base)}
	defer procs[0].kill()
	defer procs[1].kill()

	var mu sync.Mutex
	counts := map[string]int{}
	var got []string
	coord, err := New(Config{
		Rules:           rules,
		Shards:          1,
		Workers:         []string{procs[0].addr, procs[1].addr},
		Groups:          genGroups,
		TypeOf:          genTypeOf,
		OnDetect:        func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
		SyncEvery:       1 << 20,         // no barrier before the one that re-places
		CheckpointEvery: -1,              // replay the whole journal
		BarrierTimeout:  2 * time.Second, // the kill costs one timeout; the replacement must not
		Seed:            11,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil || addr != procs[1].addr {
				return conn, err
			}
			return countFrames(conn, &mu, counts), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Abort()
	if pl := coord.Placement(); len(pl) != 1 || pl[0] != 0 {
		t.Fatalf("placement %v, want the one shard on worker 0", pl)
	}
	for i, o := range stream {
		if err := coord.Ingest(o); err != nil {
			t.Fatal(err)
		}
		if i%250 == 249 {
			if err := coord.AdvanceTo(o.At); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Frames the replay must send: the assign, then every frame first
	// shipped — each advance, and each run of routed observations between
	// advances, sealed at maxShipBatch and at the advance or the barrier
	// that ends it.
	router := shard.NewRouter(shard.NewPartition(rules, 1, genGroups), genGroups)
	obs, advs, want, run := 0, 0, 1, 0
	for i, o := range stream {
		if len(router.ShardsFor(o.Reader)) > 0 {
			obs++
			if run++; run == maxShipBatch {
				want, run = want+1, 0
			}
		}
		if i%250 == 249 {
			advs++
			if run > 0 {
				want, run = want+1, 0
			}
			want++
		}
	}
	if run > 0 {
		want++
	}
	if obs <= maxShipBatch || advs == 0 {
		t.Fatalf("journal holds %d observations and %d advances; the test needs more than %d and some", obs, advs, maxShipBatch)
	}

	procs[0].kill()
	if err := coord.Sync(); err != nil {
		t.Fatal(err)
	}
	if coord.Handoffs() != 1 || coord.Placement()[0] != 1 {
		t.Fatalf("handoffs %d, placement %v: want the shard re-placed on worker 1", coord.Handoffs(), coord.Placement())
	}
	// The counter decodes a write just after the pipe takes it: wait for
	// the last frames to be counted.
	var sent int
	var seen string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		sent = counts["assign"] + counts["batch"] + counts["advance"] + counts["obs"]
		seen = fmt.Sprint(counts)
		mu.Unlock()
		if sent >= want || time.Now().After(deadline) {
			break
		}
	}
	if sent != want {
		t.Fatalf("replay of %d observations and %d advances sent %d frames %v, want %d (one per observation would be %d)",
			obs, advs, sent, seen, want, obs+advs+1)
	}

	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	diffStrings(t, "multiset", asMultiset(runSingle(t, rules, stream)), asMultiset(got))
}

// holdListener signals each connection it accepts on accepted, then holds
// it until release closes: a connection between accept and registration.
type holdListener struct {
	net.Listener
	accepted, release chan struct{}
}

func (l *holdListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
		<-l.release
	}
	return c, err
}

// TestStoppedWorkerServesNothing: a connection accepted before Stop whose
// handler would start after it is closed unserved, with no boot frame;
// one accepted after Stop is served.
func TestStoppedWorkerServesNothing(t *testing.T) {
	t.Parallel()
	rules := genRules(rand.New(rand.NewSource(3)), 3)
	w, err := NewWorker(WorkerConfig{Rules: rules, Shards: 1, Groups: genGroups, TypeOf: genTypeOf, BootID: "boot-1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hl := &holdListener{Listener: ln, accepted: make(chan struct{}, 2), release: make(chan struct{})}
	served := make(chan error, 1)
	go func() { served <- w.Serve(hl) }()
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	early := dial()
	<-hl.accepted
	w.Stop()
	close(hl.release)
	if boot, err := readBoot(early, 2*time.Second); err == nil {
		t.Fatalf("a connection accepted before Stop was served (boot %q)", boot)
	}
	if boot, err := readBoot(dial(), 2*time.Second); err != nil || boot != "boot-1" {
		t.Fatalf("a connection accepted after Stop: boot %q, %v", boot, err)
	}
	ln.Close()
	<-served
	w.Stop()
}
