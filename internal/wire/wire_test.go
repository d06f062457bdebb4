package wire

import (
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rcep"
	"rcep/internal/core/event"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func startServer(t *testing.T, cfg rcep.Config) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = srv.Serve(l) }()
	return srv, l.Addr().String()
}

const dupRule = `
CREATE RULE r1, duplicate detection rule
ON WITHIN(observation(r, o, t1); observation(r, o, t2), 5sec)
IF true
DO INSERT INTO ALERTS VALUES ('dup', o, t1)
`

func TestWireEndToEnd(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fires := make(chan Message, 10)
	c.OnFire = func(m Message) { fires <- m }

	if err := c.Send("dock1", "p42", sec(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("dock1", "p42", sec(2)); err != nil {
		t.Fatal(err)
	}

	select {
	case m := <-fires:
		if m.Rule != "r1" || m.Bindings["o"] != "p42" {
			t.Fatalf("fire: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no firing received")
	}

	cols, rows, err := c.Query(`SELECT object_epc FROM ALERTS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || len(rows) != 1 || rows[0][0] != "p42" {
		t.Fatalf("query over wire: %v %v", cols, rows)
	}

	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 2 || stats.Detections != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestWireQueryError(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Query(`SELECT * FROM NOPE`); err == nil {
		t.Fatalf("bad query over wire accepted")
	}
	// The connection stays usable.
	if _, _, err := c.Query(`SELECT COUNT(*) FROM ALERTS`); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

func TestWireOutOfOrderReported(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = c.Send("r", "a", sec(10))
	_ = c.Send("r", "b", sec(1)) // regresses: server replies error
	// An error frame lands in the result slot; surface it via a query
	// race-free by just waiting for the error frame.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-c.result:
			if m.Type == "error" && strings.Contains(m.Msg, "out of timestamp order") {
				return
			}
		case <-deadline:
			t.Fatalf("out-of-order error not reported")
		}
	}
}

func TestWireMultipleClients(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c1, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Dial returns once the kernel accepts the connection, before the
	// server's handler has registered it for broadcasts. A round trip on
	// c2 proves the registration, so c1's firing cannot race past it.
	if _, _, err := c2.Query(`SELECT COUNT(*) FROM ALERTS`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make(chan Message, 4)
	for _, c := range []*Client{c1, c2} {
		c.OnFire = func(m Message) { got <- m }
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = c1.Send("dock", "x", sec(1))
		_ = c1.Send("dock", "x", sec(2))
	}()
	wg.Wait()
	// Both clients receive the broadcast.
	for i := 0; i < 2; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("client %d missed the broadcast", i)
		}
	}
	if _, err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWireAdvance(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: `
CREATE RULE out, outfield
ON WITHIN(observation('shelf', o, t1); NOT observation('shelf', o, t2), 30sec)
IF true
DO INSERT INTO ALERTS VALUES ('outfield', o, t1)
`})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	fires := make(chan Message, 1)
	c.OnFire = func(m Message) { fires <- m }
	_ = c.Send("shelf", "item1", sec(0))
	_ = c.Advance(sec(100))
	select {
	case m := <-fires:
		if m.Rule != "out" {
			t.Fatalf("fire: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("advance did not complete the negation window")
	}
	_, _ = c.Close()
}

func TestWireReorderAndDedupStages(t *testing.T) {
	srv, err := NewServer(rcep.Config{Rules: dupRule},
		WithReorder(5*time.Second), WithDedup(time.Second))
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
	fires := make(chan Message, 4)
	c.OnFire = func(m Message) { fires <- m }

	// Out of order + a near-duplicate: reorder fixes the order, dedup
	// drops the 0.5s repeat, leaving exactly one valid pairing (3s gap).
	_ = c.Send("dock", "p", sec(3))
	_ = c.Send("dock", "p", sec(0))   // late but inside the slack
	_ = c.Send("dock", "p", sec(3.5)) // duplicate of 3s read
	_ = c.Send("dock", "p", sec(20))  // flush trigger, outside windows
	_ = c.Advance(sec(60))

	select {
	case m := <-fires:
		if m.Rule != "r1" {
			t.Fatalf("fire: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("reordered pairing not detected")
	}
	select {
	case m := <-fires:
		t.Fatalf("unexpected extra firing (dedup failed?): %+v", m)
	case <-time.After(200 * time.Millisecond):
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	// 4 sent, 1 deduplicated → 3 ingested.
	if stats.Observations != 3 {
		t.Fatalf("observations after stages: %+v", stats)
	}
}

// TestMessageZeroTimestampRoundTrip: an observation or firing at t=0 is
// legitimate; its timestamp fields must survive JSON encoding instead of
// being dropped by omitempty.
func TestMessageZeroTimestampRoundTrip(t *testing.T) {
	obs := Message{Type: "batch", Batch: []BatchObs{{Reader: "r1", Object: "o1", AtNS: 0}}}
	b, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `{"reader":"r1","object":"o1","at_ns":0}`) {
		t.Fatalf("batch at_ns dropped at t=0: %s", b)
	}
	var back Message
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(obs, back) {
		t.Fatalf("round trip drift: %+v vs %+v", obs, back)
	}

	fire := Message{Type: "fire", Rule: "r1", BeginNS: 0, EndNS: 0}
	b, err = json.Marshal(fire)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"begin_ns":0`, `"end_ns":0`} {
		if !strings.Contains(string(b), field) {
			t.Fatalf("%s dropped at t=0: %s", field, b)
		}
	}
	var fireBack Message
	if err := json.Unmarshal(b, &fireBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fire, fireBack) {
		t.Fatalf("round trip drift: %+v vs %+v", fire, fireBack)
	}
}

func TestWireUnknownMessage(t *testing.T) {
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"mystery"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "unknown message type") {
		t.Fatalf("reply: %s", buf[:n])
	}
}

// TestSequencedUnknownFrameRefused: a sequenced frame the server cannot
// apply — an unknown type, or the "obs" frame of an older client — is
// answered with an error and the connection closes without claiming its
// seq. Were the frame behind it applied, its cumulative ack would release
// the refused frame from the sender's ring as if it had been applied.
func TestSequencedUnknownFrameRefused(t *testing.T) {
	for _, tc := range []struct{ name, frame string }{
		{"bogus", `{"type":"bogus","client_id":"f1","seq":1}`},
		{"legacy-obs", `{"type":"obs","reader":"r1","object":"o1","at_ns":0,"client_id":"f1","seq":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr := startServer(t, rcep.Config{Rules: dupRule})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			dec := json.NewDecoder(conn)
			if _, err := conn.Write([]byte(tc.frame + "\n")); err != nil {
				t.Fatal(err)
			}
			var m Message
			if err := dec.Decode(&m); err != nil || m.Type != "error" {
				t.Fatalf("reply %+v (%v), want error", m, err)
			}
			_, _ = conn.Write([]byte(`{"type":"advance","at_ns":1000,"client_id":"f1","seq":2}` + "\n"))
			var next Message
			if err := dec.Decode(&next); err == nil {
				t.Fatalf("connection left open, next reply %+v", next)
			} else if ne := (net.Error)(nil); errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection left open: %v", err)
			}
			if got := srv.ackedSeq("f1"); got != 0 {
				t.Fatalf("ackedSeq = %d after a refused frame, want 0", got)
			}
		})
	}
}

// TestServerIngestCanonicalizes exercises the intern hook at the head of
// the ingest chain: object strings decoded from distinct frames must
// collapse to one canonical instance before they reach dedup, reorder and
// the engine, so a firing's bindings carry the first-interned string.
func TestServerIngestCanonicalizes(t *testing.T) {
	var dets []rcep.Detection
	srv, err := NewServer(rcep.Config{
		Rules:       dupRule,
		OnDetection: func(d rcep.Detection) { dets = append(dets, d) },
	}, WithDedup(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	in := srv.Engine().Interner()
	if in == nil {
		t.Fatal("compiled engine exposes no interner")
	}
	canon := in.Canon("p" + strconv.Itoa(42)) // first-interned instance
	for i := 0; i < 2; i++ {
		// Each loop iteration builds fresh string instances, as a JSON
		// decoder would per frame.
		obs := event.Observation{
			Reader: "dock" + strconv.Itoa(1),
			Object: "p" + strconv.Itoa(42),
			At:     event.Time(time.Duration(i) * time.Second),
		}
		if err := srv.ingestBatch(event.Batch{obs}); err != nil {
			t.Fatal(err)
		}
	}
	if len(dets) != 1 {
		t.Fatalf("got %d detections, want 1", len(dets))
	}
	o, ok := dets[0].Bindings["o"].(string)
	if !ok || o != "p42" {
		t.Fatalf("binding o = %v", dets[0].Bindings["o"])
	}
	if unsafe.StringData(o) != unsafe.StringData(canon) {
		t.Errorf("binding carries a non-canonical string instance")
	}
	if srv.Engine().Close() != nil {
		t.Fatal("close")
	}
}
