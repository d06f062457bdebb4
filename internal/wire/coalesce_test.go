package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcep"
	"rcep/internal/core/event"
)

// The write discipline: the server acks once per drained read, not once
// per frame, and flushes every other connection's fires before a frame's
// apply returns; clients keep no fire log.

// rawFrames encodes n sequenced batch frames for client id, one distinct
// observation each, so no rule fires.
func rawFrames(t *testing.T, id string, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		b, err := json.Marshal(Message{Type: "batch", ClientID: id, Seq: uint64(i + 1),
			Batch: []BatchObs{{Reader: "dock1", Object: fmt.Sprintf("p%d", i), AtNS: int64(i)}}})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// readUntil decodes server frames until one satisfies stop, returning
// every frame read; it fails the test on a read error or after 10s.
func readUntil(t *testing.T, conn net.Conn, fr *FrameReader, stop func(Message) bool) []Message {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got []Message
	for {
		var m Message
		if err := fr.Read(&m); err != nil {
			t.Fatalf("after %d frames: %v", len(got), err)
		}
		got = append(got, m)
		if stop(m) {
			return got
		}
	}
}

// bye ends a raw connection and returns the server's stats reply.
func bye(t *testing.T, conn net.Conn, fr *FrameReader) Message {
	t.Helper()
	if _, err := conn.Write([]byte(`{"type":"bye"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	got := readUntil(t, conn, fr, func(m Message) bool { return m.Type == "stats" })
	return got[len(got)-1]
}

// TestPipelinedFramesDrawFewerAcks: 200 sequenced frames arriving in one
// write are acked when the server's input drains, not once each; the
// cumulative ack still reaches 200 and every frame is applied once.
func TestPipelinedFramesDrawFewerAcks(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := NewFrameReader(conn)
	const n = 200
	if _, err := conn.Write(append(bytes.Join(rawFrames(t, "pipe", n), []byte("\n")), '\n')); err != nil {
		t.Fatal(err)
	}
	replies := readUntil(t, conn, fr, func(m Message) bool { return m.Type == "ack" && m.Seq == n })
	acks, last := 0, uint64(0)
	for _, m := range replies {
		if m.Type != "ack" {
			t.Fatalf("unexpected reply %+v", m)
		}
		if m.Seq < last {
			t.Fatalf("cumulative ack went back from %d to %d", last, m.Seq)
		}
		acks, last = acks+1, m.Seq
	}
	if acks >= n {
		t.Fatalf("%d acks for %d pipelined frames, want fewer", acks, n)
	}
	if st := bye(t, conn, fr); st.Observations != n {
		t.Fatalf("engine counted %d observations, want %d", st.Observations, n)
	}
	t.Logf("%d frames in one write drew %d ack(s)", n, acks)
}

// TestAckAfterCRLFAndBlankLines: whitespace between frames — \r\n
// endings, blank lines, a separator arriving before the frame it
// precedes — is not frame input, so it never withholds an ack. The
// sender waits for each ack before the next frame, so a withheld ack
// fails on the read deadline.
func TestAckAfterCRLFAndBlankLines(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := NewFrameReader(conn)
	frames := rawFrames(t, "crlf", 20)
	for i, f := range frames {
		var w []byte
		switch i % 3 {
		case 0:
			w = append(append(w, f...), "\r\n"...)
		case 1:
			w = append(append(w, f...), "\r\n\r\n\n \t\r\n"...)
		default:
			w = append(append(w, "\r\n\n"...), f...)
		}
		if _, err := conn.Write(w); err != nil {
			t.Fatal(err)
		}
		want := uint64(i + 1)
		readUntil(t, conn, fr, func(m Message) bool { return m.Type == "ack" && m.Seq == want })
	}
	if st := bye(t, conn, fr); st.Observations != uint64(len(frames)) {
		t.Fatalf("engine counted %d observations, want %d", st.Observations, len(frames))
	}
}

// TestReliableRingOfOne: with a one-frame ring every Send waits for the
// previous frame's ack, so a withheld ack stalls the feed; 5k
// observations still arrive exactly, well within the deadline.
func TestReliableRingOfOne(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	const n = 5000
	obs := chaosObservations(n) // one duplicate pair per 50 observations
	c, err := DialReliable(addr, ReliableOptions{ClientID: "ring-of-one", Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for _, o := range obs {
			if err := c.Send(o.reader, o.object, o.at); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("feed stalled at ack %d of %d", c.Acked(), n)
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != n || stats.Detections != n/50 || c.Acked() != n || c.Reconnects() != 0 {
		t.Fatalf("stats %+v, acked %d, reconnects %d: want %d observations, %d detections, ack %d, no reconnect",
			stats, c.Acked(), c.Reconnects(), n, n/50, n)
	}
}

// TestIdleListenerGetsEveryFire: a connection that never sends gets no
// settle of its own, yet receives every fire while another connection
// pipelines the frames that cause them.
func TestIdleListenerGetsEveryFire(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	listener, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer listener.conn.Close()
	var fires atomic.Int64
	allFired := make(chan struct{})
	const want = 100
	listener.OnFire = func(Message) {
		if fires.Add(1) == want {
			close(allFired)
		}
	}
	// A reply proves the server registered the listener for broadcasts.
	if _, _, err := listener.Query("SELECT * FROM OBSERVATION"); err != nil {
		t.Fatal(err)
	}

	feeder, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer feeder.Close()
	var w strings.Builder
	for i := 0; i < want; i++ { // two reads of each object 1s apart: one fire each
		for j := 0; j < 2; j++ {
			b, err := json.Marshal(Message{Type: "batch", ClientID: "feeder", Seq: uint64(2*i + j + 1),
				Batch: []BatchObs{{Reader: "dock1", Object: fmt.Sprintf("p%d", i), AtNS: int64(sec(float64(10*i + j)))}}})
			if err != nil {
				t.Fatal(err)
			}
			w.Write(b)
			w.WriteByte('\n')
		}
	}
	if _, err := feeder.Write([]byte(w.String())); err != nil {
		t.Fatal(err)
	}
	select {
	case <-allFired:
	case <-time.After(10 * time.Second):
		t.Fatalf("idle listener received %d of %d fires", fires.Load(), want)
	}
	// The feeder still gets its own fires and the cumulative ack.
	got := readUntil(t, feeder, NewFrameReader(feeder), func(m Message) bool { return m.Type == "ack" && m.Seq == 2*want })
	own := 0
	for _, m := range got {
		if m.Type == "fire" {
			own++
		}
	}
	if own != want || fires.Load() != want {
		t.Fatalf("feeder saw %d fires, listener %d; want %d each", own, fires.Load(), want)
	}
}

// TestDrainedCheckAllocatesNothing: the check runs before every Read.
func TestDrainedCheckAllocatesNothing(t *testing.T) {
	fr := NewFrameReader(strings.NewReader(`{"type":"pong"}` + " \r\n" + `{"type":"pong"}`))
	var m Message
	if err := fr.Read(&m); err != nil {
		t.Fatal(err)
	}
	if fr.drained() {
		t.Fatal("a buffered second frame counted as drained")
	}
	if allocs := testing.AllocsPerRun(100, func() { fr.drained() }); allocs != 0 {
		t.Fatalf("drained allocates %v per call", allocs)
	}
	if err := fr.Read(&m); err != nil {
		t.Fatal(err)
	}
	if !fr.drained() {
		t.Fatal("an empty buffer counted as holding a frame")
	}
}

// TestBroadcastAllocatesNothing: a fire frame put into one connection's
// buffer allocates nothing once its names are defined on the connection.
func TestBroadcastAllocatesNothing(t *testing.T) {
	srv, err := NewServer(rcep.Config{Rules: `
CREATE RULE r1, repeat read
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
IF true
DO INSERT INTO ALERTS VALUES ('dup', o, t1)
`})
	if err != nil {
		t.Fatal(err)
	}
	srv.fanout = []*clientConn{{FrameWriter: NewFrameWriter(io.Discard)}}
	binds := event.MakeBindings(map[string]event.Value{
		"o": event.StringValue("urn:epc:id:gid:1.2.3"), "r": event.StringValue("dock1"), "t1": event.TimeValue(5),
	})
	fire := func() {
		srv.fire = Message{Type: "fire", Rule: "r1", Name: "repeat read", BeginNS: 5, EndNS: 9, Binds: binds}
		srv.broadcast()
	}
	if allocs := testing.AllocsPerRun(100, fire); allocs != 0 {
		t.Fatalf("a broadcast to one connection allocates %v", allocs)
	}
}

// TestAllocBudgetFireRead: reading a fire whose names are defined on the
// connection allocates only the boxes of its string and its number; the
// Bindings map is the reader's, reused from fire to fire.
func TestAllocBudgetFireRead(t *testing.T) {
	var buf bytes.Buffer
	w, fr := NewFrameWriter(&buf), NewFrameReader(&buf)
	fire := Message{Type: "fire", Rule: "r1", Name: "repeat read", BeginNS: 5, EndNS: 9,
		Binds: event.MakeBindings(map[string]event.Value{
			"o": event.StringValue("urn:epc:id:gid:1.2.3"), "n": event.IntValue(7), "ok": event.BoolValue(true),
		})}
	var m Message
	round := func() {
		if err := w.Send(&fire); err != nil {
			t.Fatal(err)
		}
		if err := fr.Read(&m); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs > 2 {
		t.Fatalf("reading a fire allocates %v, budget is 2", allocs)
	}
	if want := map[string]any{"o": "urn:epc:id:gid:1.2.3", "n": 7.0, "ok": true}; !reflect.DeepEqual(m.Bindings, want) {
		t.Fatalf("read bindings %v, want %v", m.Bindings, want)
	}
}

// TestAllocBudgetFireTextSymbols: a fire whose string value is a name the
// connection has not seen reads in one allocation, the string's box; the
// new name is cut from the reader's slab. The slab's chunks and the symbol
// table's growth are spread over the run.
func TestAllocBudgetFireTextSymbols(t *testing.T) {
	const fires = 200
	var buf bytes.Buffer
	w, fr := NewFrameWriter(&buf), NewFrameReader(&buf)
	for i := 0; i <= fires; i++ {
		fire := Message{Type: "fire", Rule: "r1", Name: "repeat read", BeginNS: 5, EndNS: 9,
			Binds: event.MakeBindings(map[string]event.Value{"o": event.StringValue(fmt.Sprintf("urn:epc:id:gid:1.2.%d", i))})}
		if err := w.Send(&fire); err != nil {
			t.Fatal(err)
		}
	}
	var m Message
	allocs := testing.AllocsPerRun(fires, func() {
		if err := fr.Read(&m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("reading a fire with a new string allocates %v, budget is 1", allocs)
	}
	if want := fmt.Sprintf("urn:epc:id:gid:1.2.%d", fires); m.Bindings["o"] != want || m.Rule != "r1" {
		t.Fatalf("last fire reads rule %q, bindings %v; want r1, o = %s", m.Rule, m.Bindings, want)
	}
}

// TestReliableClientKeepsNoFires: a live feed with no OnFire retains
// nothing per fire. 20k fires kept as frames would be over 10 MB.
func TestReliableClientKeepsNoFires(t *testing.T) {
	const noopRule = `
CREATE RULE r1, repeat read
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
IF true
DO noop(o)
`
	srv, err := NewServer(rcep.Config{Rules: noopRule})
	if err != nil {
		t.Fatal(err)
	}
	srv.Engine().RegisterProcedure("noop", func(rcep.ProcContext, []any) error { return nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	c, err := DialReliable(l.Addr().String(), ReliableOptions{ClientID: "long-lived"})
	if err != nil {
		t.Fatal(err)
	}
	// Ten objects read in turn every 100ms: each read repeats one 1s
	// earlier, so nearly every observation fires.
	const n = 20100
	send := func(lo, hi int) {
		t.Helper()
		batch := make([]BatchObs, 0, 100)
		for i := lo; i < hi; i++ {
			batch = append(batch, BatchObs{Reader: "dock1", Object: fmt.Sprintf("p%d", i%10), AtNS: int64(i) * int64(100*time.Millisecond)})
			if len(batch) == cap(batch) || i == hi-1 {
				if err := c.SendBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
		if err := c.Flush(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	send(0, 100) // warm up: engine state for every object exists
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	send(100, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detections < 20000 {
		t.Fatalf("only %d fires; the check needs 20k", stats.Detections)
	}
	if growth > 2<<20 {
		t.Fatalf("heap grew %.1f MB over %d fires with the client live", float64(growth)/(1<<20), stats.Detections)
	}
	t.Logf("heap growth %.2f MB over %d fires", float64(growth)/(1<<20), stats.Detections)
}
