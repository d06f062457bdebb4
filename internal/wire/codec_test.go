package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rcep"
)

// The binary batch codec: what FrameWriter writes, FrameReader reads back
// unchanged, over any interleaving with JSON frames, within the symbol
// table's bound; every other frame is the JSON it always was.

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
// handler does, keeping a copy of each.
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
		before := len(w.batch.ids)
		if err := w.Put(&want[i]); err != nil {
			t.Fatal(err)
		}
		if len(w.batch.ids) < before {
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
		if len(w.batch.ids) > maxSymbols || len(fr.syms) > maxSymbols {
			t.Fatalf("tables hold %d and %d names, limit %d", len(w.batch.ids), len(fr.syms), maxSymbols)
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

// TestNonBatchFramesByteIdentical pins every frame but batch to the JSON
// encoding, newline included, that endpoints wrote before the codec.
func TestNonBatchFramesByteIdentical(t *testing.T) {
	frames := []struct {
		m    Message
		want string
	}{
		{Message{Type: "ack", Seq: 7}, `{"type":"ack","at_ns":0,"seq":7,"begin_ns":0,"end_ns":0}`},
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
}

// FuzzFrameCodec reads arbitrary bytes as a frame stream: the reader
// never panics, and each batch frame it decodes survives a second trip
// through a fresh writer and reader unchanged.
func FuzzFrameCodec(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		var buf bytes.Buffer
		w := NewFrameWriter(&buf)
		for j := 0; j < 4; j++ {
			m := randomFrame(r, j)
			_ = w.Put(&m)
		}
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
			if m.Type != "batch" || len(m.Batch) == 0 {
				continue
			}
			m = Message{Type: "batch", ClientID: m.ClientID, Seq: m.Seq, Batch: m.Batch}
			var buf bytes.Buffer
			if err := NewFrameWriter(&buf).Send(&m); err != nil {
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

// binarySeeds are hostile binary batch frames: cut short, a count over
// MaxBatchFrame, an undefined symbol, a symbol and a payload longer than
// their bounds.
func binarySeeds() [][]byte {
	var good bytes.Buffer
	w := NewFrameWriter(&good)
	_ = w.Send(&Message{Type: "batch", ClientID: "e", Seq: 1, Batch: []BatchObs{{Reader: "r1", Object: "a", AtNS: 1000}}})
	frame := func(payload ...byte) []byte {
		return append([]byte{batchTag, byte(len(payload))}, payload...)
	}
	return [][]byte{
		good.Bytes()[:good.Len()-2],
		// flags, seq 1, client "" defined, count MaxBatchFrame+1 (uvarint 0x81 0x80 0x04).
		frame(0, 1, 0, 0, 0x81, 0x80, 0x04, 0, 0, 0),
		// client ID references symbol 5 in an empty table.
		frame(0, 1, 5, 0),
		// a symbol of 5000 bytes.
		frame(0, 1, 0, 0x88, 0x27, 'x'),
		// a payload length past maxBatchPayload.
		{batchTag, 0xff, 0xff, 0xff, 0x7f},
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
