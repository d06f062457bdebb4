package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unicode/utf8"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

// The binary frames: batch (the only frame with observations on the
// wire), fire and ack. Each is
//
//	tag      batchTag, fireTag or ackTag, bytes no JSON frame starts with
//	size     uvarint payload length, at most maxPayload
//	payload  flags  byte; 1 clears the symbol table first, >1 is malformed
//	         then the frame's fields:
//
//	batch    seq uvarint (0: unsequenced), client ID symbol,
//	         count uvarint observations, count × reader symbol, object
//	         symbol, zigzag varint At minus the previous observation's
//	         (the first's minus 0)
//	fire     rule symbol, name symbol, zigzag varint begin_ns and end_ns,
//	         count uvarint bindings, count × variable symbol, value
//	ack      seq uvarint, client ID symbol
//
// A fire's value is a kind byte and its payload: null, false and true
// carry none; a string is a symbol; an int or a time is a zigzag varint;
// a float is its 8 IEEE 754 bytes, little-endian; a list is a uvarint
// count and that many values, nested at most maxDepth deep. A reader
// decodes a fire into the Message that json.Unmarshal gives for its JSON
// rendering: a Bindings map of float64 numbers, []any lists and "UC" for
// the open-ended time (rcep.Detection.Bindings), nil for no bindings. The
// map is the reader's, cleared and refilled by its next binary fire.
//
// A symbol is a uvarint index into the connection's symbol table. The
// index equal to the table's length defines the next entry: a uvarint
// length of at most maxSymbolLen, then the bytes. The writer clears its
// table before a frame that could take it past maxSymbols, and sets the
// flag so the reader clears its own; a new connection starts with both
// empty. A binary frame carries the fields above and nothing else. A
// frame the codec cannot carry (a name longer than maxSymbolLen, more
// distinct names than the table holds, a payload over maxPayload, a fire
// string that is not UTF-8 or a float JSON cannot carry either) is written
// as JSON, which has none of these bounds.
const (
	batchTag     = 0xb7
	fireTag      = 0xb8
	ackTag       = 0xb9
	flagReset    = 1
	maxPayload   = 8 << 20
	maxSymbolLen = 1 << 10
	maxSymbols   = 1 << 16
	maxDepth     = 16
	maxHeader    = 1 + binary.MaxVarintLen64
)

// The kind byte of a fire's binding value.
const (
	valNull byte = iota
	valFalse
	valTrue
	valString
	valInt
	valFloat
	valList
)

// encoder is a writer's half of the codec: its symbol table and the
// payload scratch.
type encoder struct {
	ids   map[string]uint32
	flags byte // flagReset after the table was cleared, until a frame says so
	full  bool // a field did not fit the codec's bounds: the frame goes as JSON
	buf   []byte
}

// encode returns m's framed binary encoding, or false when the codec's
// bounds cannot carry it.
func (e *encoder) encode(m *Message) ([]byte, bool) {
	tag, need := byte(ackTag), 1
	switch m.Type {
	case "batch":
		tag, need = batchTag, 2*len(m.Batch)+1
	case "fire":
		tag, need = fireTag, 2
		for _, kv := range m.Binds {
			need += 1 + symbolsIn(kv.Val)
		}
	}
	if len(e.ids)+need > maxSymbols {
		e.restart()
	}
	// The payload goes after room for the longest header, which is filled
	// in right-aligned once the payload's length is known.
	p := append(append(e.buf[:0], make([]byte, maxHeader)...), e.flags)
	switch tag {
	case batchTag:
		p = binary.AppendUvarint(p, m.Seq)
		p = binary.AppendUvarint(e.sym(p, m.ClientID), uint64(len(m.Batch)))
		var at int64
		for _, o := range m.Batch {
			p = binary.AppendVarint(e.sym(e.sym(p, o.Reader), o.Object), o.AtNS-at)
			at = o.AtNS
		}
	case fireTag:
		p = binary.AppendVarint(e.text(e.text(p, m.Rule), m.Name), m.BeginNS)
		p = binary.AppendUvarint(binary.AppendVarint(p, m.EndNS), uint64(len(m.Binds)))
		for _, kv := range m.Binds {
			p = e.value(e.text(p, kv.Var), kv.Val, 0)
		}
	default:
		p = e.sym(binary.AppendUvarint(p, m.Seq), m.ClientID)
	}
	e.buf = p
	if e.full || len(p)-maxHeader > maxPayload {
		e.restart() // drop definitions the reader will never see
		return nil, false
	}
	e.flags = 0
	var hdr [maxHeader]byte
	hdr[0] = tag
	h := 1 + binary.PutUvarint(hdr[1:], uint64(len(p)-maxHeader))
	copy(p[maxHeader-h:], hdr[:h])
	return p[maxHeader-h:], true
}

// symbolsIn counts the symbols v can define.
func symbolsIn(v event.Value) int {
	switch v.Kind() {
	case event.KindString, event.KindTime:
		return 1
	case event.KindList:
		n := 0
		for _, x := range v.List() {
			n += symbolsIn(x)
		}
		return n
	}
	return 0
}

// value appends one binding value as rcep.Detection.Bindings renders it.
func (e *encoder) value(p []byte, v event.Value, depth int) []byte {
	switch v.Kind() {
	case event.KindString:
		return e.text(append(p, valString), v.Str())
	case event.KindInt:
		return binary.AppendVarint(append(p, valInt), v.Int())
	case event.KindTime:
		if v.Time() == store.UC {
			return e.text(append(p, valString), "UC")
		}
		return binary.AppendVarint(append(p, valInt), int64(v.Time()))
	case event.KindFloat:
		f := v.Float()
		e.full = e.full || math.IsNaN(f) || math.IsInf(f, 0)
		return binary.LittleEndian.AppendUint64(append(p, valFloat), math.Float64bits(f))
	case event.KindBool:
		if v.Bool() {
			return append(p, valTrue)
		}
		return append(p, valFalse)
	case event.KindList:
		e.full = e.full || depth == maxDepth
		p = binary.AppendUvarint(append(p, valList), uint64(v.Len()))
		for _, x := range v.List() {
			p = e.value(p, x, depth+1)
		}
		return p
	}
	return append(p, valNull)
}

// restart empties the table; the next frame tells the reader to as well.
func (e *encoder) restart() {
	clear(e.ids)
	e.flags, e.full = flagReset, false
}

// text is sym for a fire's strings, which JSON would carry only as UTF-8.
func (e *encoder) text(p []byte, s string) []byte {
	e.full = e.full || !utf8.ValidString(s)
	return e.sym(p, s)
}

// sym appends a reference to s, defining it first if the table lacks it.
func (e *encoder) sym(p []byte, s string) []byte {
	id, ok := e.ids[s]
	switch {
	case ok:
		return binary.AppendUvarint(p, uint64(id))
	case len(e.ids) == maxSymbols || len(s) > maxSymbolLen:
		e.full = true
		return p
	}
	e.ids[s] = uint32(len(e.ids))
	p = binary.AppendUvarint(p, uint64(len(e.ids)-1))
	return append(binary.AppendUvarint(p, uint64(len(s))), s...)
}

// BatchTooLargeError is FrameReader.Read's error for a batch frame of more
// than MaxBatchFrame observations. The frame was consumed whole and its
// header decoded, so the receiver can refuse it without claiming its seq.
type BatchTooLargeError struct{ N int }

func (e *BatchTooLargeError) Error() string {
	return fmt.Sprintf("batch of %d observations exceeds limit %d", e.N, MaxBatchFrame)
}

// errMalformed is a frame the reader cannot decode: drop the connection.
var errMalformed = errors.New("wire: malformed frame")

// FrameReader is the one read path of every wire endpoint: binary frames
// and JSON frames (an object read to its closing brace, so no newline is
// needed) from one buffer, with the connection's symbol table.
type FrameReader struct {
	br    *bufio.Reader
	canon *event.Interner // the server's: batch names are canonical from definition
	syms  []string
	slab  []byte // the bytes of names no interner keeps (event.SlabString)
	buf   []byte
	p     []byte         // the binary payload still to decode
	bad   bool           // the payload failed to decode
	binds map[string]any // a binary fire's Bindings, reused by the next fire
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Read decodes the next frame into m, overwriting it. A binary batch
// reuses m.Batch's backing array, so a caller that keeps a batch past the
// next Read must pass a fresh Message. A binary fire's Bindings is the
// reader's own map, valid until the next Read: maps.Clone keeps it. An
// oversized batch returns *BatchTooLargeError; after any other error the
// stream is unusable.
func (r *FrameReader) Read(m *Message) error {
	batch := m.Batch[:0]
	*m = Message{} // json.Unmarshal would keep a reused element's old fields
	c, err := r.br.ReadByte()
	for err == nil && isSpace(c) {
		c, err = r.br.ReadByte()
	}
	if err != nil {
		return err
	}
	n := 0
	switch c {
	case '{':
		if err := r.scanJSON(); err != nil {
			return err
		}
		if err := json.Unmarshal(r.buf, m); err != nil {
			return err
		}
		if r.canon != nil {
			for i := range m.Batch {
				o := &m.Batch[i]
				o.Reader, o.Object = r.canon.Canon(o.Reader), r.canon.Canon(o.Object)
			}
		}
		n = len(m.Batch)
	case batchTag, fireTag, ackTag:
		m.Batch = batch
		if n, err = r.readBinary(c, m); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: starts with byte %#x", errMalformed, c)
	}
	if n > MaxBatchFrame {
		m.Batch = nil
		return &BatchTooLargeError{N: n}
	}
	return nil
}

// drained reports whether no byte of a further frame is buffered, so the
// next Read reads the connection and may block.
func (r *FrameReader) drained() bool {
	b, _ := r.br.Peek(r.br.Buffered())
	return len(bytes.TrimLeft(b, " \t\r\n")) == 0
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// scanJSON copies one JSON object, its '{' already read, into r.buf,
// skipping braces and brackets inside strings.
func (r *FrameReader) scanJSON() error {
	r.buf = append(r.buf[:0], '{')
	for depth, inStr, esc := 1, false, false; depth > 0; {
		c, err := r.br.ReadByte()
		if err != nil {
			return err
		}
		r.buf = append(r.buf, c)
		switch {
		case esc:
			esc = false
		case inStr:
			esc, inStr = c == '\\', c != '"'
		case c == '"':
			inStr = true
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		}
	}
	return nil
}

// readBinary decodes a binary frame, its tag already read, and returns a
// batch's observation count. An oversized batch is decoded but its
// observations are not kept, so the symbol table stays in step.
func (r *FrameReader) readBinary(tag byte, m *Message) (int, error) {
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, err
	}
	if size > maxPayload {
		return 0, fmt.Errorf("%w: payload of %d bytes exceeds %d", errMalformed, size, maxPayload)
	}
	r.buf = slices.Grow(r.buf[:0], int(size))[:size]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return 0, err
	}
	r.p, r.bad = r.buf, false
	flags := r.uvarint()
	if flags == flagReset {
		clear(r.syms)
		r.syms = r.syms[:0]
	}
	var count uint64
	switch tag {
	case batchTag:
		m.Type, m.Seq = "batch", r.uvarint()
		m.ClientID = r.sym(r.canon)
		count = r.uvarint()
		var at int64
		for i := uint64(0); i < count && !r.bad; i++ {
			o := BatchObs{Reader: r.sym(r.canon), Object: r.sym(r.canon)}
			if o.AtNS = at + r.varint(); count <= MaxBatchFrame {
				m.Batch = append(m.Batch, o)
			}
			at = o.AtNS
		}
	case fireTag: // as json.Unmarshal reads the JSON rendering: no bindings, no map
		m.Type, m.Rule, m.Name = "fire", r.text(), r.text()
		m.BeginNS, m.EndNS = r.varint(), r.varint()
		n := r.count()
		if n > 0 {
			if r.binds == nil {
				r.binds = make(map[string]any, min(n, 16))
			}
			clear(r.binds)
			m.Bindings = r.binds
		}
		for ; n > 0 && !r.bad; n-- {
			k := r.text()
			m.Bindings[k] = r.value(0)
		}
	default:
		m.Type, m.Seq = "ack", r.uvarint()
		m.ClientID = r.sym(nil)
	}
	if r.bad || flags > flagReset || len(r.p) > 0 {
		return 0, fmt.Errorf("%w: payload of %d bytes", errMalformed, size)
	}
	return int(count), nil
}

// value decodes one binding value.
func (r *FrameReader) value(depth int) any {
	if len(r.p) == 0 {
		r.bad = true
		return nil
	}
	kind := r.p[0]
	r.p = r.p[1:]
	switch kind {
	case valNull:
		return nil
	case valFalse, valTrue:
		return kind == valTrue
	case valString:
		return r.text()
	case valInt:
		return float64(r.varint())
	case valFloat:
		if len(r.p) < 8 {
			r.bad = true
			return nil
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(r.p))
		r.p = r.p[8:]
		r.bad = r.bad || math.IsNaN(f) || math.IsInf(f, 0)
		return f
	case valList:
		n := r.count()
		r.bad = r.bad || depth == maxDepth
		l := make([]any, 0, min(n, 16))
		for ; n > 0 && !r.bad; n-- {
			l = append(l, r.value(depth+1))
		}
		return l
	}
	r.bad = true
	return nil
}

// count decodes an element count, each element taking at least one byte.
func (r *FrameReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return 0
	}
	return int(n)
}

// text is sym for a fire's strings, which the writer sends only as UTF-8,
// never canonical: a server refuses fire frames and must not keep names.
func (r *FrameReader) text() string {
	s := r.sym(nil)
	r.bad = r.bad || !utf8.ValidString(s)
	return s
}

// sym decodes a symbol reference, defining the next table entry when the
// index is the table's length. A server's reader canonicalises the names
// a batch defines there, once for the connection, so every batch it reads
// arrives canonical (bar a name a refused frame defined: as decoded).
// Any other name is cut from the reader's slab: a copy, not an allocation.
func (r *FrameReader) sym(canon *event.Interner) string {
	id := r.uvarint()
	if id < uint64(len(r.syms)) {
		return r.syms[id]
	}
	n := r.uvarint()
	if id != uint64(len(r.syms)) || id == maxSymbols || n > maxSymbolLen || n > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return ""
	}
	var s string
	if canon != nil {
		s = canon.CanonBytes(r.p[:n]) // a name the engine knows costs nothing
	} else {
		s = event.SlabString(&r.slab, r.p[:n])
	}
	r.p = r.p[n:]
	r.syms = append(r.syms, s)
	return s
}

func (r *FrameReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.p)
	if k <= 0 {
		r.p, r.bad = nil, true
		return 0
	}
	r.p = r.p[k:]
	return v
}

// varint decodes a zigzag varint, as binary.AppendVarint writes it.
func (r *FrameReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}
