package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rcep"
	"rcep/internal/core/event"
	"rcep/internal/store"
)

// The binary batch, fire and ack codec: what FrameWriter writes,
// FrameReader reads back unchanged (a fire as its JSON rendering reads),
// over any interleaving with JSON frames, within the symbol table's bound;
// every other frame is the JSON it always was.

// codecNames mixes the names a batch can carry: empty, multi-byte UTF-8,
// and plain ones.
var codecNames = []string{"", "dock1", "r2", "ü-lecteur", "读者-7", "🏷️tag", "urn:epc:id:sgtin:0614141.107346.2017"}

// randomFrame is a batch frame (with empty strings, zero and decreasing
// timestamps) or one of the JSON frames the endpoints exchange.
func randomFrame(r *rand.Rand, i int) Message {
	switch r.Intn(6) {
	case 0:
		return Message{Type: "ack", Seq: uint64(r.Intn(1000))}
	case 1:
		return Message{Type: "fire", Rule: "r5", Name: "asset monitoring rule", BeginNS: int64(i), EndNS: int64(2 * i),
			Bindings: map[string]any{"o": codecNames[r.Intn(len(codecNames))]}}
	case 2:
		return Message{Type: "advance", ClientID: "edge1", Seq: uint64(i + 1), AtNS: int64(r.Intn(5))}
	}
	m := Message{Type: "batch", ClientID: codecNames[r.Intn(len(codecNames))], Seq: uint64(r.Intn(3) * i)}
	at := int64(r.Intn(3)) * 1e9
	for n := r.Intn(12); n > 0; n-- {
		obj := codecNames[r.Intn(len(codecNames))] + fmt.Sprint(r.Intn(40))
		m.Batch = append(m.Batch, BatchObs{Reader: codecNames[r.Intn(len(codecNames))], Object: obj, AtNS: at})
		at += int64(r.Intn(2001)-1000) * 1e6 // may go back
	}
	return m
}

// readAll decodes every frame in b into one reused Message, as a server
// handler does, keeping a copy of each: a fire's Bindings is the reader's
// map until the next Read, so the copy clones it.
func readAll(t *testing.T, b []byte) []Message {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(b))
	var out []Message
	var m Message
	for {
		err := fr.Read(&m)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("frame %d: %v", len(out), err)
		}
		c := m
		c.Bindings = maps.Clone(m.Bindings)
		c.Batch = slices.Clone(m.Batch)
		if len(c.Batch) == 0 {
			c.Batch = nil
		}
		out = append(out, c)
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var want []Message
	for i := 0; i < 3000; i++ {
		want = append(want, randomFrame(r, i))
	}
	// A full-size batch in the middle: its worst case does not fit beside
	// the table so far, so the writer starts the table over mid-stream.
	big := Message{Type: "batch", ClientID: "edge1", Seq: 99}
	for i := 0; i < MaxBatchFrame; i++ {
		big.Batch = append(big.Batch, BatchObs{Reader: "dock1", Object: fmt.Sprint("p", i%100), AtNS: int64(MaxBatchFrame - i)})
	}
	want = append(want[:1500], append([]Message{big}, want[1500:]...)...)
	want = append(want, Message{Type: "batch", Batch: []BatchObs{{Reader: "r8", Object: "stale", AtNS: 1}}})

	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	resets := 0
	for i := range want {
		before := len(w.codec.ids)
		if err := w.Put(&want[i]); err != nil {
			t.Fatal(err)
		}
		if len(w.codec.ids) < before {
			resets++
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"batch"`)) {
		t.Fatal("a batch frame went as JSON")
	}
	// A hand-written JSON batch after binary ones: a field it omits reads
	// as empty, not as what the reused batch held.
	buf.WriteString(`{"type":"batch","batch":[{"reader":"r9","at_ns":3}]}`)
	want = append(want, Message{Type: "batch", Batch: []BatchObs{{Reader: "r9", AtNS: 3}}})
	if resets == 0 {
		t.Fatal("the stream never started its symbol table over")
	}
	got := readAll(t, buf.Bytes())
	if len(got) != len(want) {
		t.Fatalf("read %d frames, wrote %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d: read %+v, wrote %+v", i, got[i], want[i])
		}
	}
}

// TestFrameCodecTableBound drives the symbol table to its limit and one
// past it, across frames and inside one frame: every frame still reads
// back, and neither table ever holds more than maxSymbols names.
func TestFrameCodecTableBound(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	fr := NewFrameReader(&buf)
	check := func(m Message) {
		t.Helper()
		if err := w.Put(&m); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := fr.Read(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("read %+v, wrote %+v", got, m)
		}
		if len(w.codec.ids) > maxSymbols || len(fr.syms) > maxSymbols {
			t.Fatalf("tables hold %d and %d names, limit %d", len(w.codec.ids), len(fr.syms), maxSymbols)
		}
	}
	// maxSymbols+1 distinct names, 64 per frame: the table fills, starts
	// over, and the feed goes on.
	for next := 0; next <= maxSymbols; {
		m := Message{Type: "batch", ClientID: "edge1", Seq: uint64(next + 1)}
		for i := 0; i < 32 && next <= maxSymbols; i++ {
			m.Batch = append(m.Batch, BatchObs{Reader: fmt.Sprint("r", next), Object: fmt.Sprint("o", next+1), AtNS: int64(next)})
			next += 2
		}
		check(m)
	}
	// One frame naming maxSymbols+1 distinct strings cannot be carried in
	// binary; it goes as JSON, and the binary frame after it still reads.
	over := Message{Type: "batch", ClientID: "edge1", Seq: 1 << 20}
	for i := 0; i < maxSymbols/2; i++ {
		over.Batch = append(over.Batch, BatchObs{Reader: fmt.Sprint("R", i), Object: fmt.Sprint("O", i), AtNS: int64(i)})
	}
	check(over)
	check(Message{Type: "batch", ClientID: "edge1", Seq: 1<<20 + 1, Batch: []BatchObs{{Reader: "R1", Object: "O1", AtNS: 5}}})
	// So does a name longer than maxSymbolLen.
	check(Message{Type: "batch", ClientID: "edge1", Seq: 1<<20 + 2, Batch: []BatchObs{{Reader: "R1", Object: strings.Repeat("x", maxSymbolLen+1)}}})
	check(Message{Type: "batch", ClientID: "edge1", Seq: 1<<20 + 3, Batch: []BatchObs{{Reader: "R1", Object: "O1", AtNS: 5}}})
}

// TestNonBatchFramesByteIdentical pins every frame the codec does not
// carry to the JSON encoding, newline included, that endpoints wrote
// before the codec: control frames, a hand-built fire with a Bindings map,
// and the fallback of a fire built from event.Bindings that the codec's
// bounds cannot carry.
func TestNonBatchFramesByteIdentical(t *testing.T) {
	frames := []struct {
		m    Message
		want string
	}{
		{Message{Type: "fire", Rule: "r1", Name: "dup <rule>", BeginNS: 1, EndNS: 2, Bindings: map[string]any{"o": "p42"}},
			`{"type":"fire","at_ns":0,"rule":"r1","name":"dup \u003crule\u003e","begin_ns":1,"end_ns":2,"bindings":{"o":"p42"}}`},
		{Message{Type: "assign", ClientID: "coord.x.s0.e1", Seq: 1, Shard: 2, DetSeq: 3, Ck: json.RawMessage(`{"v":1}`), Sum: 9},
			`{"type":"assign","at_ns":0,"client_id":"coord.x.s0.e1","seq":1,"begin_ns":0,"end_ns":0,"shard":2,"det_seq":3,"ck":{"v":1},"sum":9}`},
		{Message{Type: "dets", Shard: 1, Seq: 4, CDets: []ClusterDet{{Rule: 2, Dseq: 5, FireNS: 6, BeginNS: 7, EndNS: 8}}},
			`{"type":"dets","at_ns":0,"seq":4,"begin_ns":0,"end_ns":0,"shard":1,"cdets":[{"rule":2,"dseq":5,"fire_ns":6,"begin_ns":7,"end_ns":8}]}`},
		{Message{Type: "sync", ClientID: "c", Seq: 2, AtNS: 10}, `{"type":"sync","at_ns":10,"client_id":"c","seq":2,"begin_ns":0,"end_ns":0}`},
	}
	for _, f := range frames {
		var buf bytes.Buffer
		w := NewFrameWriter(&buf)
		if err := w.Send(&f.m); err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != f.want+"\n" {
			t.Errorf("%s frame:\n got %s\nwant %s", f.m.Type, got, f.want)
		}
		if b, _ := json.Marshal(f.m); buf.String() != string(b)+"\n" {
			t.Errorf("%s frame differs from json.Marshal", f.m.Type)
		}
	}
	// A name past maxSymbolLen: the fire goes as the JSON the server wrote
	// from its Bindings map before the codec.
	name := strings.Repeat("n", maxSymbolLen+1)
	fire := Message{Type: "fire", Rule: "r1", Name: name, BeginNS: 1, EndNS: 2, Binds: event.MakeBindings(map[string]event.Value{
		"o": event.StringValue("p42"), "t": event.TimeValue(store.UC), "n": event.ListValue([]event.Value{event.IntValue(3), event.TimeValue(4)}),
	})}
	want := `{"type":"fire","at_ns":0,"rule":"r1","name":"` + name + `","begin_ns":1,"end_ns":2,"bindings":{"n":[3,4],"o":"p42","t":"UC"}}` + "\n"
	parent, _ := json.Marshal(Message{Type: "fire", Rule: "r1", Name: name, BeginNS: 1, EndNS: 2,
		Bindings: map[string]any{"o": "p42", "t": "UC", "n": []any{int64(3), time.Duration(4)}}})
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).Send(&fire); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want || got != string(parent)+"\n" {
		t.Errorf("fallback fire frame:\n got %s\nwant %s", got, want)
	}
}

// FuzzFrameCodec reads arbitrary bytes as a frame stream: the reader
// never panics, and each batch, fire and ack frame it decodes survives a
// second trip through a fresh writer and reader unchanged.
func FuzzFrameCodec(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		w := NewFrameWriter(&buf)
		for j := 0; j < 4; j++ {
			m := randomFrame(r, j)
			_ = w.Put(&m)
			m = randomFire(r, j)
			_ = w.Put(&m)
		}
		_ = w.Put(&Message{Type: "ack", Seq: uint64(i), ClientID: codecNames[i%len(codecNames)]})
		_ = w.Flush()
		f.Add(buf.Bytes())
	}
	for _, seed := range binarySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		for {
			var m Message
			err := fr.Read(&m)
			var big *BatchTooLargeError
			if errors.As(err, &big) {
				continue
			}
			if err != nil {
				return
			}
			// send is m as a writer builds it; reading it back must give m.
			var send Message
			switch {
			case m.Type == "batch" && len(m.Batch) > 0:
				m = Message{Type: "batch", ClientID: m.ClientID, Seq: m.Seq, Batch: m.Batch}
				send = m
			case m.Type == "ack":
				m = Message{Type: "ack", ClientID: m.ClientID, Seq: m.Seq}
				send = m
			case m.Type == "fire":
				binds, ok := bindsOf(m.Bindings)
				if !ok {
					continue // a JSON fire with values no firing binds
				}
				send = Message{Type: "fire", Rule: m.Rule, Name: m.Name, BeginNS: m.BeginNS, EndNS: m.EndNS, Binds: binds}
				m = Message{Type: "fire", Rule: m.Rule, Name: m.Name, BeginNS: m.BeginNS, EndNS: m.EndNS, Bindings: m.Bindings}
				if len(m.Bindings) == 0 {
					m.Bindings = nil
				}
			default:
				continue
			}
			var buf bytes.Buffer
			if err := NewFrameWriter(&buf).Send(&send); err != nil {
				t.Fatal(err)
			}
			var back Message
			if err := NewFrameReader(&buf).Read(&back); err != nil {
				t.Fatalf("re-encoded %+v: %v", m, err)
			}
			if !reflect.DeepEqual(back, m) {
				t.Fatalf("re-encoded %+v, read back %+v", m, back)
			}
		}
	})
}

// bindsOf turns a decoded fire's bindings back into event.Bindings, or
// reports false for a value no firing binds.
func bindsOf(m map[string]any) (event.Bindings, bool) {
	vals := map[string]event.Value{}
	for k, x := range m {
		v, ok := valueOf(x)
		if !ok {
			return nil, false
		}
		vals[k] = v
	}
	return event.MakeBindings(vals), true
}

func valueOf(x any) (event.Value, bool) {
	switch x := x.(type) {
	case nil:
		return event.Null, true
	case string:
		return event.StringValue(x), true
	case float64:
		return event.FloatValue(x), true
	case bool:
		return event.BoolValue(x), true
	case []any:
		l := make([]event.Value, len(x))
		for i, e := range x {
			v, ok := valueOf(e)
			if !ok {
				return event.Null, false
			}
			l[i] = v
		}
		return event.ListValue(l), true
	}
	return event.Null, false
}

// binarySeeds are hostile binary frames: cut short, a count over
// MaxBatchFrame, an undefined symbol, a symbol and a payload longer than
// their bounds, lists nested too deep.
func binarySeeds() [][]byte {
	var good bytes.Buffer
	w := NewFrameWriter(&good)
	_ = w.Send(&Message{Type: "batch", ClientID: "e", Seq: 1, Batch: []BatchObs{{Reader: "r1", Object: "a", AtNS: 1000}}})
	frame := func(payload ...byte) []byte { return binaryFrame(batchTag, payload...) }
	return [][]byte{
		good.Bytes()[:good.Len()-2],
		// flags, seq 1, client "" defined, count MaxBatchFrame+1 (uvarint 0x81 0x80 0x04).
		frame(0, 1, 0, 0, 0x81, 0x80, 0x04, 0, 0, 0),
		// client ID references symbol 5 in an empty table.
		frame(0, 1, 5, 0),
		// a symbol of 5000 bytes.
		frame(0, 1, 0, 0x88, 0x27, 'x'),
		// a payload length past maxPayload.
		{batchTag, 0xff, 0xff, 0xff, 0x7f},
		// a fire and an ack cut short, a fire naming an undefined symbol,
		// lists nested past maxDepth.
		binaryFrame(fireTag, 0, 0, 1, 'r', 0, 0, 0, 1, 0, valList),
		binaryFrame(ackTag, 0, 1),
		binaryFrame(fireTag, 0, 0, 1, 'r', 3),
		nestedFire(maxDepth + 1),
		append(good.Bytes(), "{\"type\":\"pong\"}\n"...),
	}
}

// TestMalformedBinaryBatchDropsConnection: a binary batch the reader
// cannot decode drops the connection, as garbage JSON does, and claims
// nothing — the sequenced frame behind it is never applied.
func TestMalformedBinaryBatchDropsConnection(t *testing.T) {
	for name, payload := range map[string][]byte{
		// flags, seq 1, client "f1" defined, count 1, then reader symbol 7.
		"undefined-symbol": {0, 1, 0, 2, 'f', '1', 1, 7},
		"unknown-flags":    {2, 1, 0, 2, 'f', '1', 0},
		"trailing-bytes":   {0, 1, 0, 2, 'f', '1', 0, 9},
	} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startServer(t, rcep.Config{Rules: dupRule})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			frame := append([]byte{batchTag, byte(len(payload))}, payload...)
			frame = append(frame, `{"type":"advance","at_ns":1000,"client_id":"f1","seq":2}`+"\n"...)
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			var m Message
			if err := NewFrameReader(conn).Read(&m); err == nil {
				t.Fatalf("connection left open, reply %+v", m)
			} else if ne := (net.Error)(nil); errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection left open: %v", err)
			}
			if got := srv.ackedSeq("f1"); got != 0 {
				t.Fatalf("ackedSeq = %d after a malformed frame, want 0", got)
			}
		})
	}
}

// randomValue is a binding value of any kind, lists nested up to depth.
func randomValue(r *rand.Rand, depth int) event.Value {
	switch k := r.Intn(9); {
	case k == 0:
		return event.Null
	case k == 1:
		return event.StringValue(codecNames[r.Intn(len(codecNames))])
	case k == 2:
		return event.IntValue([]int64{0, -1, 1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64, r.Int63() - r.Int63()}[r.Intn(7)])
	case k == 3:
		return event.FloatValue([]float64{0, math.Copysign(0, -1), 0.1, -2.5e-7, 1e300, 5e-324, r.NormFloat64() * 1e6}[r.Intn(7)])
	case k == 4:
		return event.BoolValue(r.Intn(2) == 0)
	case k == 5:
		return event.TimeValue(event.Time(r.Int63n(1e15)))
	case k == 6:
		return event.TimeValue(store.UC)
	case depth > 0:
		l := make([]event.Value, r.Intn(4))
		for i := range l {
			l[i] = randomValue(r, depth-1)
		}
		return event.ListValue(l)
	}
	return event.StringValue("")
}

// randomFire is a server's fire: bindings of every kind, none included.
func randomFire(r *rand.Rand, i int) Message {
	vals := map[string]event.Value{}
	for n := r.Intn(5); n > 0; n-- {
		vals[codecNames[r.Intn(len(codecNames))]+fmt.Sprint(r.Intn(3))] = randomValue(r, 3)
	}
	return Message{Type: "fire", Rule: fmt.Sprint("r", r.Intn(4)), Name: codecNames[r.Intn(len(codecNames))],
		BeginNS: int64(r.Intn(3)*i) - 5, EndNS: int64(i) * 1e9, Binds: event.MakeBindings(vals)}
}

// jsonRendering is what a reader of m's JSON rendering, the frame the
// server wrote before the codec, decodes.
func jsonRendering(t *testing.T, m Message) Message {
	t.Helper()
	if m.Binds != nil {
		m.Bindings, m.Binds = rcep.Detection{Binds: m.Binds}.Bindings(), nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var out Message
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFireFrameMatchesJSON: a fire built from event.Bindings goes binary
// and reads back as the Message json.Unmarshal gives for its JSON
// rendering — float64 numbers, []any lists, "UC" a string, no map for no
// bindings — whatever its bindings hold. The fires go through one reader,
// whose Bindings map each fire reuses: the fixed first three (three
// bindings, then one under other names, then none) catch a key or a map
// left over from the fire before.
func TestFireFrameMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	fr := NewFrameReader(&buf)
	kinds := map[string]bool{}
	seeds := []Message{
		{Type: "fire", Rule: "r1", Name: "n", Binds: event.MakeBindings(map[string]event.Value{
			"o": event.StringValue("p1"), "n": event.IntValue(3), "ok": event.BoolValue(true)})},
		{Type: "fire", Rule: "r1", Name: "n", Binds: event.Bindings{{Var: "x", Val: event.StringValue("p2")}}},
		{Type: "fire", Rule: "r1", Name: "n"},
	}
	for i := 0; i < 2000; i++ {
		m := randomFire(r, i)
		if i < len(seeds) {
			m = seeds[i]
		}
		for _, kv := range m.Binds {
			kinds[kv.Val.Kind().String()] = true
		}
		if err := w.Send(&m); err != nil {
			t.Fatal(err)
		}
		if buf.Bytes()[0] != fireTag {
			t.Fatalf("fire %d went as %q", i, buf.Bytes())
		}
		var got Message
		if err := fr.Read(&got); err != nil {
			t.Fatalf("fire %d: %v", i, err)
		}
		if want := jsonRendering(t, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("fire %d: read %#v, JSON rendering reads %#v", i, got, want)
		}
	}
	if len(kinds) != 7 {
		t.Fatalf("bindings covered kinds %v, want all 7", kinds)
	}
}

// TestAckFrameRoundTrip: acks, with and without a client ID, go binary
// and read back as their JSON rendering reads.
func TestAckFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	fr := NewFrameReader(&buf)
	for _, m := range []Message{
		{Type: "ack", Seq: 7},
		{Type: "ack", Seq: 1 << 40, ClientID: "edge1"},
		{Type: "ack", ClientID: "读者-7"},
		{Type: "ack", Seq: 8},
	} {
		if err := w.Send(&m); err != nil {
			t.Fatal(err)
		}
		if buf.Bytes()[0] != ackTag {
			t.Fatalf("ack %+v went as %q", m, buf.Bytes())
		}
		var got Message
		if err := fr.Read(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) || !reflect.DeepEqual(got, jsonRendering(t, m)) {
			t.Fatalf("ack %+v read back as %+v", m, got)
		}
	}
}

// TestFrameCodecTableResetMixedFrames: batch, fire and ack frames share a
// writer's symbol table; a stream of them naming more distinct strings
// than it holds starts the table over mid-stream, and every frame reads
// back.
func TestFrameCodecTableResetMixedFrames(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	var want []Message
	resets := 0
	for i := 0; resets < 2; i++ {
		var m Message
		switch i % 3 {
		case 0:
			m = Message{Type: "batch", ClientID: "edge1", Seq: uint64(i)}
			for j := 0; j < 200; j++ {
				m.Batch = append(m.Batch, BatchObs{Reader: "dock1", Object: fmt.Sprint("o", i, ".", j), AtNS: int64(i)})
			}
		case 1:
			m = randomFire(r, i)
			m.Binds = m.Binds.Set("obj", event.StringValue(fmt.Sprint("p", i)))
		default:
			m = Message{Type: "ack", Seq: uint64(i), ClientID: fmt.Sprint("c", i)}
		}
		before := len(w.codec.ids)
		if err := w.Put(&m); err != nil {
			t.Fatal(err)
		}
		if len(w.codec.ids) < before {
			resets++
		}
		want = append(want, jsonRendering(t, m))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"type"`)) {
		t.Fatal("a frame went as JSON")
	}
	got := readAll(t, buf.Bytes())
	if len(got) != len(want) {
		t.Fatalf("read %d frames, wrote %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("frame %d: read %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestFireFrameFallsBackToJSON: a fire the codec's bounds cannot carry —
// a name past maxSymbolLen, a string JSON would not carry as it is — goes
// as its JSON rendering and reads back equal; the binary fire after it
// still reads.
func TestFireFrameFallsBackToJSON(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	fr := NewFrameReader(&buf)
	o := event.MakeBindings(map[string]event.Value{"o": event.StringValue("p42"), "t": event.TimeValue(store.UC)})
	for _, m := range []Message{
		{Type: "fire", Rule: "r1", Name: strings.Repeat("ü", maxSymbolLen), EndNS: 3, Binds: o},
		{Type: "fire", Rule: "r1", Name: "n", Binds: o.Set("bad", event.StringValue("\xff"))},
		{Type: "fire", Rule: "r1", Name: "n", EndNS: 4, Binds: o},
	} {
		if err := w.Send(&m); err != nil {
			t.Fatal(err)
		}
		binary := buf.Bytes()[0] == fireTag
		if binary != (m.EndNS == 4) {
			t.Fatalf("fire %q: binary %v", m.Name, binary)
		}
		var got Message
		if err := fr.Read(&got); err != nil {
			t.Fatal(err)
		}
		if want := jsonRendering(t, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("fire read %+v, want %+v", got, want)
		}
	}
}

// binaryFrame frames a hand-written binary payload.
func binaryFrame(tag byte, payload ...byte) []byte {
	return append([]byte{tag, byte(len(payload))}, payload...)
}

// nestedFire is a fire whose one binding is n lists deep: flags, rule "r"
// defined, name the same symbol, begin and end 0, one binding named by
// symbol 0, then the lists and a null.
func nestedFire(n int) []byte {
	p := []byte{0, 0, 1, 'r', 0, 0, 0, 1, 0}
	for i := 0; i < n; i++ {
		p = append(p, valList, 1)
	}
	return binaryFrame(fireTag, append(p, valNull)...)
}

// TestMalformedFireOrAckDropsConnection: a client whose server sends a
// fire or ack frame it cannot decode drops the connection, so the result
// frame behind it never arrives; the well-formed controls deliver it.
func TestMalformedFireOrAckDropsConnection(t *testing.T) {
	var good bytes.Buffer
	w := NewFrameWriter(&good)
	_ = w.Send(&Message{Type: "fire", Rule: "r1", Name: "n", Binds: event.Bindings{{Var: "o", Val: event.StringValue("p1")}}})
	fire := slices.Clone(good.Bytes())
	good.Reset()
	_ = w.Send(&Message{Type: "ack", Seq: 3, ClientID: "edge1"})
	ack := good.Bytes()
	// cut drops a frame's last payload byte and fixes its size to match.
	cut := func(f []byte) []byte { return binaryFrame(f[0], f[2:len(f)-1]...) }
	for _, tc := range []struct {
		name   string
		frames []byte
		ok     bool
	}{
		{"good", append(slices.Clone(fire), ack...), true},
		{"depth-at-bound", nestedFire(maxDepth), true},
		{"truncated-fire", cut(fire), false},
		{"truncated-ack", cut(ack), false},
		{"undefined-symbol", binaryFrame(fireTag, 0, 5), false},
		{"unknown-kind", binaryFrame(fireTag, 0, 0, 1, 'r', 0, 0, 0, 1, 0, 9), false},
		{"depth-past-bound", nestedFire(maxDepth + 1), false},
		{"nan", binaryFrame(fireTag, 0, 0, 1, 'r', 0, 0, 0, 1, 0, valFloat, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				var q Message
				if NewFrameReader(conn).Read(&q) != nil {
					return
				}
				_, _ = conn.Write(append(slices.Clone(tc.frames), `{"type":"result","columns":["n"]}`+"\n"...))
				_, _ = io.Copy(io.Discard, conn)
			}()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.conn.Close()
			fired := 0
			c.OnFire = func(Message) { fired++ }
			_, _, err = c.Query("SELECT 1")
			if (err == nil) != tc.ok {
				t.Fatalf("query after the frames: %v, want delivered %v", err, tc.ok)
			}
			if tc.ok && fired != 1 {
				t.Fatalf("%d fires delivered, want 1", fired)
			}
		})
	}
}
