// Package epc implements the one EPC Tag Data Standard v1.1 scheme
// (reference [1] of the paper) the programs decode: GID-96, whose object
// class field gives the type(o) of paper §2.1 through a Registry, plus the
// 96-bit binary form and its hex rendering that the LLRP edge carries.
package epc

import (
	"fmt"
	"strconv"
)

// Binary is a 96-bit EPC in big-endian byte order.
type Binary [12]byte

// Hex renders the EPC as 24 uppercase hex digits.
func (b Binary) Hex() string {
	var out [24]byte
	return string(b.AppendHex(out[:0]))
}

// AppendHex appends the EPC's 24 uppercase hex digits to dst, so a caller
// with a reused buffer renders it without allocating.
func (b Binary) AppendHex(dst []byte) []byte {
	const digits = "0123456789ABCDEF"
	for _, by := range b {
		dst = append(dst, digits[by>>4], digits[by&0xF])
	}
	return dst
}

// ParseHex parses a 24-digit hex EPC.
func ParseHex(s string) (Binary, error) {
	var b Binary
	if len(s) != 24 {
		return b, fmt.Errorf("epc: hex EPC must be 24 digits, got %d", len(s))
	}
	for i := 0; i < 12; i++ {
		v, err := strconv.ParseUint(s[2*i:2*i+2], 16, 8)
		if err != nil {
			return b, fmt.Errorf("epc: bad hex EPC %q: %v", s, err)
		}
		b[i] = byte(v)
	}
	return b, nil
}

// getBits extracts width bits starting at bit offset start (bit 0 is the
// most significant bit of b[0]).
func getBits(b Binary, start, width int) uint64 {
	var v uint64
	for i := start; i < start+width; i++ {
		byteIdx, bitIdx := i/8, 7-i%8
		v = v<<1 | uint64(b[byteIdx]>>bitIdx&1)
	}
	return v
}

// setBits stores the low width bits of v at bit offset start.
func setBits(b *Binary, start, width int, v uint64) {
	for i := 0; i < width; i++ {
		bit := v >> (width - 1 - i) & 1
		pos := start + i
		byteIdx, bitIdx := pos/8, 7-pos%8
		if bit == 1 {
			b[byteIdx] |= 1 << bitIdx
		} else {
			b[byteIdx] &^= 1 << bitIdx
		}
	}
}

// headerGID96 is the TDS v1.1 8-bit header of GID-96, the one scheme
// decoded.
const headerGID96 = 0x35

func checkField(name string, v uint64, bits int) error {
	if v >= 1<<bits {
		return fmt.Errorf("epc: %s %d exceeds %d bits", name, v, bits)
	}
	return nil
}

// GID is a general identifier: manager / object class / serial, with no
// GS1 company prefix semantics. The simulator uses GIDs because the object
// class field maps naturally onto type(o).
type GID struct {
	Manager uint64 // 28 bits
	Class   uint64 // 24 bits
	Serial  uint64 // 36 bits
}

// Encode packs the GID into a 96-bit EPC.
func (g GID) Encode() (Binary, error) {
	var b Binary
	if err := checkField("manager number", g.Manager, 28); err != nil {
		return b, err
	}
	if err := checkField("object class", g.Class, 24); err != nil {
		return b, err
	}
	if err := checkField("serial", g.Serial, 36); err != nil {
		return b, err
	}
	setBits(&b, 0, 8, headerGID96)
	setBits(&b, 8, 28, g.Manager)
	setBits(&b, 36, 24, g.Class)
	setBits(&b, 60, 36, g.Serial)
	return b, nil
}

// DecodeGID unpacks a GID-96 EPC.
func DecodeGID(b Binary) (GID, error) {
	var g GID
	if b[0] != headerGID96 {
		return g, fmt.Errorf("epc: not a gid-96 (header 0x%02X)", b[0])
	}
	g.Manager = getBits(b, 8, 28)
	g.Class = getBits(b, 36, 24)
	g.Serial = getBits(b, 60, 36)
	return g, nil
}
