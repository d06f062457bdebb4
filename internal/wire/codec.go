package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
)

// The binary batch frame, the only frame with observations on the wire:
//
//	tag      batchTag, a byte no JSON frame starts with
//	size     uvarint payload length, at most maxBatchPayload
//	payload  flags      byte; 1 clears the symbol table first, >1 is malformed
//	         seq        uvarint (0: unsequenced)
//	         client ID  symbol
//	         count      uvarint observations
//	         count ×    reader symbol, object symbol,
//	                    zigzag varint At minus the previous observation's
//	                    (the first's minus 0)
//
// A symbol is a uvarint index into the connection's symbol table. The
// index equal to the table's length defines the next entry: a uvarint
// length of at most maxSymbolLen, then the bytes. The writer clears its
// table before a frame that could take it past maxSymbols, and sets the
// flag so the reader clears its own; a new connection starts with both
// empty. A batch frame carries its client ID, seq and observations and
// nothing else. A frame the codec cannot carry (a name longer than
// maxSymbolLen, more distinct names than the table holds, a payload over
// maxBatchPayload) is written as JSON, which has none of these bounds.
const (
	batchTag        = 0xb7
	flagReset       = 1
	maxBatchPayload = 8 << 20
	maxSymbolLen    = 1 << 10
	maxSymbols      = 1 << 16
	maxHeader       = 1 + binary.MaxVarintLen64
)

// batchEncoder is a writer's half of the codec: its symbol table and the
// payload scratch.
type batchEncoder struct {
	ids   map[string]uint32
	flags byte // flagReset after the table was cleared, until a frame says so
	full  bool // a symbol did not fit: the frame goes as JSON
	buf   []byte
}

// encode returns m's framed binary encoding, or false when the codec's
// bounds cannot carry it.
func (e *batchEncoder) encode(m *Message) ([]byte, bool) {
	if len(e.ids)+2*len(m.Batch)+1 > maxSymbols {
		e.restart()
	}
	// The payload goes after room for the longest header, which is filled
	// in right-aligned once the payload's length is known.
	p := append(e.buf[:0], make([]byte, maxHeader)...)
	p = binary.AppendUvarint(append(p, e.flags), m.Seq)
	p = binary.AppendUvarint(e.sym(p, m.ClientID), uint64(len(m.Batch)))
	var at int64
	for _, o := range m.Batch {
		p = binary.AppendVarint(e.sym(e.sym(p, o.Reader), o.Object), o.AtNS-at)
		at = o.AtNS
	}
	e.buf = p
	if e.full || len(p)-maxHeader > maxBatchPayload {
		e.restart() // drop definitions the reader will never see
		return nil, false
	}
	e.flags = 0
	var hdr [maxHeader]byte
	hdr[0] = batchTag
	h := 1 + binary.PutUvarint(hdr[1:], uint64(len(p)-maxHeader))
	copy(p[maxHeader-h:], hdr[:h])
	return p[maxHeader-h:], true
}

// restart empties the table; the next frame tells the reader to as well.
func (e *batchEncoder) restart() {
	clear(e.ids)
	e.flags, e.full = flagReset, false
}

// sym appends a reference to s, defining it first if the table lacks it.
func (e *batchEncoder) sym(p []byte, s string) []byte {
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

// FrameReader is the one read path of every wire endpoint: binary batch
// frames and JSON frames (an object read to its closing brace, so no
// newline is needed) from one buffer, with the connection's symbol table.
type FrameReader struct {
	br   *bufio.Reader
	syms []string
	buf  []byte
	p    []byte // the batch payload still to decode
	bad  bool   // the payload failed to decode
}

// NewFrameReader reads frames from r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r)}
}

// Read decodes the next frame into m, overwriting it. A binary batch
// reuses m.Batch's backing array, so a caller that keeps a batch past the
// next Read must pass a fresh Message. An oversized batch returns
// *BatchTooLargeError; after any other error the stream is unusable.
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
		n = len(m.Batch)
	case batchTag:
		m.Batch = batch
		if n, err = r.readBatch(m); err != nil {
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

// readBatch decodes a binary batch frame, its tag already read, and
// returns its observation count. An oversized batch is decoded but its
// observations are not kept, so the symbol table stays in step.
func (r *FrameReader) readBatch(m *Message) (int, error) {
	size, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, err
	}
	if size > maxBatchPayload {
		return 0, fmt.Errorf("%w: batch payload of %d bytes exceeds %d", errMalformed, size, maxBatchPayload)
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
	m.Type, m.Seq = "batch", r.uvarint()
	m.ClientID = r.sym()
	count := r.uvarint()
	var at int64
	for i := uint64(0); i < count && !r.bad; i++ {
		o := BatchObs{Reader: r.sym(), Object: r.sym()}
		u := r.uvarint() // zigzag, as binary.AppendVarint writes it
		at += int64(u>>1) ^ -int64(u&1)
		if o.AtNS = at; count <= MaxBatchFrame {
			m.Batch = append(m.Batch, o)
		}
	}
	if r.bad || flags > flagReset || len(r.p) > 0 {
		return 0, fmt.Errorf("%w: batch payload of %d bytes", errMalformed, size)
	}
	return int(count), nil
}

// sym decodes a symbol reference, defining the next table entry when the
// index is the table's length.
func (r *FrameReader) sym() string {
	id := r.uvarint()
	if id < uint64(len(r.syms)) {
		return r.syms[id]
	}
	n := r.uvarint()
	if id != uint64(len(r.syms)) || id == maxSymbols || n > maxSymbolLen || n > uint64(len(r.p)) {
		r.p, r.bad = nil, true
		return ""
	}
	s := string(r.p[:n])
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
