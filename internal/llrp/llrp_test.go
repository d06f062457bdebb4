package llrp

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"
	stdiotest "testing/iotest"
	"testing/quick"
	"time"
	"unsafe"

	"rcep/internal/core/event"
	"rcep/internal/epc"
)

func tag(serial uint64, at time.Duration, rssi int16) TagReport {
	b, err := epc.GID{Manager: 1, Class: 2, Serial: serial}.Encode()
	if err != nil {
		panic(err)
	}
	return TagReport{EPC: b, Timestamp: at, Antenna: 1, PeakRSSI: rssi}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Message{
		Type: MsgROAccessReport, ID: 42,
		Tags: []TagReport{
			tag(1, 1500*time.Millisecond, -601),
			tag(2, 1700*time.Millisecond, -550),
		},
	}
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := decode(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(frame) {
		t.Errorf("consumed %d of %d", n, len(frame))
	}
	if got.ID != 42 || got.Type != MsgROAccessReport || len(got.Tags) != 2 {
		t.Fatalf("decoded: %+v", got)
	}
	for i := range m.Tags {
		if got.Tags[i] != m.Tags[i] {
			t.Errorf("tag %d: %+v != %+v", i, got.Tags[i], m.Tags[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Message{Type: MsgROAccessReport, ID: r.Uint32()}
		for i := 0; i < r.Intn(10); i++ {
			m.Tags = append(m.Tags, tag(
				r.Uint64()%(1<<36),
				time.Duration(r.Int63n(1e15))/time.Microsecond*time.Microsecond,
				int16(r.Intn(2000)-1500),
			))
		}
		frame, err := Encode(m)
		if err != nil {
			return false
		}
		got, n, err := decode(frame, nil)
		if err != nil || n != len(frame) || got.ID != m.ID || len(got.Tags) != len(m.Tags) {
			return false
		}
		for i := range m.Tags {
			if got.Tags[i] != m.Tags[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestControlMessages(t *testing.T) {
	for _, mt := range []MsgType{MsgKeepalive, MsgReaderEvent} {
		frame, err := Encode(Message{Type: mt, ID: 7})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := decode(frame, nil)
		if err != nil || got.Type != mt || got.ID != 7 || got.Tags != nil {
			t.Errorf("%v: %+v err=%v", mt, got, err)
		}
	}
	if _, err := Encode(Message{Type: MsgKeepalive, Tags: []TagReport{{}}}); err == nil {
		t.Errorf("keepalive with tags accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := Encode(Message{Type: MsgKeepalive, ID: 1})

	if _, _, err := decode(good[:4], nil); err != io.ErrShortBuffer {
		t.Errorf("short header: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 9
	if _, _, err := decode(bad, nil); err == nil {
		t.Errorf("wrong version accepted")
	}
	bad = append([]byte(nil), good...)
	bad[1] = 0x77
	if _, _, err := decode(bad, nil); err == nil {
		t.Errorf("unknown type accepted")
	}
	// Oversized length field.
	bad = append([]byte(nil), good...)
	bad[2], bad[3], bad[4], bad[5] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := decode(bad, nil); err == nil {
		t.Errorf("huge frame length accepted")
	}
	// Ragged report payload.
	rep, _ := Encode(Message{Type: MsgROAccessReport, ID: 1, Tags: []TagReport{tag(1, 0, 0)}})
	rep = rep[:len(rep)-3]
	// Fix up the length field to the truncated size so it decodes far
	// enough to hit the payload check.
	rep[5] = byte(len(rep))
	if _, _, err := decode(rep, nil); err == nil {
		t.Errorf("ragged payload accepted")
	}
}

func TestFrameReaderAcrossChunks(t *testing.T) {
	var wire bytes.Buffer
	var want []uint32
	for i := uint32(1); i <= 5; i++ {
		frame, _ := Encode(Message{
			Type: MsgROAccessReport, ID: i,
			Tags: []TagReport{tag(uint64(i), time.Duration(i)*time.Second, -500)},
		})
		wire.Write(frame)
		want = append(want, i)
	}
	// Read through a 7-byte-chunk reader to exercise reassembly.
	fr := NewReader(iotest{r: &wire, chunk: 7})
	var got []uint32
	for {
		m, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.ID)
	}
	if len(got) != len(want) {
		t.Fatalf("frames: %v, want %v", got, want)
	}
}

// iotest dribbles bytes in tiny chunks.
type iotest struct {
	r     io.Reader
	chunk int
}

func (it iotest) Read(p []byte) (int, error) {
	if len(p) > it.chunk {
		p = p[:it.chunk]
	}
	return it.r.Read(p)
}

func TestFrameReaderTruncatedStream(t *testing.T) {
	frame, _ := Encode(Message{Type: MsgROAccessReport, ID: 1, Tags: []TagReport{tag(1, 0, 0)}})
	fr := NewReader(bytes.NewReader(frame[:len(frame)-2]))
	if _, err := fr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream: %v", err)
	}
}

func TestAdapter(t *testing.T) {
	var got []event.Observation
	a := &Adapter{
		ReaderID: "dock-1",
		Sink: func(o event.Observation) error {
			got = append(got, o)
			return nil
		},
		MinRSSI: -700,
	}
	strong := tag(1, 2*time.Second, -650)
	weak := tag(2, 3*time.Second, -720)
	_ = a.HandleMessage(Message{Type: MsgROAccessReport, Tags: []TagReport{strong, weak}})
	_ = a.HandleMessage(Message{Type: MsgKeepalive})
	if len(got) != 1 {
		t.Fatalf("adapter output: %v", got)
	}
	if got[0].Reader != "dock-1" || got[0].At != event.Time(2*time.Second) {
		t.Errorf("observation: %+v", got[0])
	}
	if got[0].Object != strong.EPC.Hex() {
		t.Errorf("object: %s", got[0].Object)
	}
}

// drain decodes every frame from r and hands it to a until EOF, as a
// reader connection's loop does.
func drain(a *Adapter, r io.Reader) error {
	fr := NewReader(r)
	for {
		m, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := a.HandleMessage(m); err != nil {
			return err
		}
	}
}

func TestAdapterDrainIntoEngineTypes(t *testing.T) {
	// Frames → adapter → observations, with EPC decoding for type(o).
	var wire bytes.Buffer
	for i := uint64(1); i <= 3; i++ {
		frame, _ := Encode(Message{
			Type: MsgROAccessReport, ID: uint32(i),
			Tags: []TagReport{tag(i, time.Duration(i)*time.Second, -500)},
		})
		wire.Write(frame)
	}
	reg := epc.NewRegistry()
	reg.MapGIDClass(2, "case")
	var types []string
	a := &Adapter{ReaderID: "r1", Sink: func(o event.Observation) error {
		types = append(types, reg.TypeOf(o.Object))
		return nil
	}}
	if err := drain(a, &wire); err != nil {
		t.Fatal(err)
	}
	if len(types) != 3 {
		t.Fatalf("observations: %d", len(types))
	}
	for _, ty := range types {
		if ty != "case" {
			t.Errorf("type through the stack: %q", ty)
		}
	}
}

// TestAdapterIntern proves the edge-interning contract: with an intern
// table attached, repeated sightings of one tag reach the sink as the
// same string instance, the one the table holds.
func TestAdapterIntern(t *testing.T) {
	in := event.NewInterner()
	var got []event.Observation
	a := &Adapter{
		ReaderID: "dock-" + "1", // force a non-literal-pooled string
		Sink: func(o event.Observation) error {
			got = append(got, o)
			return nil
		},
		Intern: in,
	}
	rep := tag(7, time.Second, -500)
	for i := 0; i < 3; i++ {
		if err := a.HandleMessage(Message{Type: MsgROAccessReport, Tags: []TagReport{rep}}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 {
		t.Fatalf("sink saw %d observations, want 3", len(got))
	}
	for i, o := range got {
		if o.Object != rep.EPC.Hex() || o.Reader != a.ReaderID {
			t.Fatalf("observation %d mangled: %+v", i, o)
		}
		if unsafe.StringData(o.Object) != unsafe.StringData(got[0].Object) {
			t.Errorf("observation %d carries a fresh Object instance; interning did not collapse it", i)
		}
		if unsafe.StringData(o.Reader) != unsafe.StringData(got[0].Reader) {
			t.Errorf("observation %d carries a fresh Reader instance", i)
		}
	}
	if in.Len() != 2 {
		t.Errorf("intern table has %d entries, want 2 (reader + EPC)", in.Len())
	}
}

// TestReaderChunkingMatchesDecode: whatever sizes the stream's reads come
// in, Reader yields the messages decode finds in the whole buffer,
// including a frame larger than one 4 KiB read.
func TestReaderChunkingMatchesDecode(t *testing.T) {
	var big []TagReport
	for i := uint64(0); i < 300; i++ { // 10 + 300×24 bytes
		big = append(big, tag(i, time.Duration(i)*time.Millisecond, int16(-i)))
	}
	var stream []byte
	for _, m := range []Message{
		{Type: MsgROAccessReport, ID: 1, Tags: []TagReport{tag(1, time.Second, -500)}},
		{Type: MsgKeepalive, ID: 2},
		{Type: MsgROAccessReport, ID: 3, Tags: big},
		{Type: MsgROAccessReport, ID: 4},
		{Type: MsgReaderEvent, ID: 5},
		{Type: MsgROAccessReport, ID: 6, Tags: big[:3]},
	} {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	var want []Message
	for off := 0; off < len(stream); {
		m, n, err := decode(stream[off:], nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
		off += n
	}
	for name, r := range map[string]func() io.Reader{
		"whole":   func() io.Reader { return bytes.NewReader(stream) },
		"onebyte": func() io.Reader { return stdiotest.OneByteReader(bytes.NewReader(stream)) },
		"half":    func() io.Reader { return stdiotest.HalfReader(bytes.NewReader(stream)) },
	} {
		fr := NewReader(r())
		for i := 0; ; i++ {
			m, err := fr.Next()
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("%s: %d messages, want %d", name, i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatalf("%s: message %d: %v", name, i, err)
			}
			if i >= len(want) || m.Type != want[i].Type || m.ID != want[i].ID || !slices.Equal(m.Tags, want[i].Tags) {
				t.Fatalf("%s: message %d = %v %d with %d tags, differs from decode's", name, i, m.Type, m.ID, len(m.Tags))
			}
		}
	}
}

// repeatReader serves one byte stream over and over.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestAdapterKnownEPCAllocatesNothing: once the interner holds a report's
// EPCs, reading the report and handing its batch on allocates nothing:
// the frame and tags decode into reused buffers, each EPC's hex into a
// stack buffer the interner looks up.
func TestAdapterKnownEPCAllocatesNothing(t *testing.T) {
	frame, err := Encode(Message{Type: MsgROAccessReport, ID: 1, Tags: []TagReport{
		tag(1, time.Second, -500), tag(2, time.Second, -500), tag(3, 2*time.Second, -600),
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got int
	a := &Adapter{ReaderID: "dock-1", Intern: event.NewInterner(), BatchSink: func(b event.Batch) error {
		got += len(b)
		event.PutBatch(b)
		return nil
	}}
	fr := NewReader(&repeatReader{data: frame})
	round := func() {
		m, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.HandleMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Fatalf("Next plus HandleMessage for known EPCs allocates %v times, want 0", n)
	}
	if got != 3*1002 || a.Intern.Len() != 4 {
		t.Fatalf("sink saw %d observations and the interner holds %d names, want %d and 4", got, a.Intern.Len(), 3*1002)
	}
}
