// Package epc implements the subset of the EPC Tag Data Standard v1.1
// (reference [1] of the paper) needed by an RFID middleware: encoding and
// decoding of SGTIN-96, SSCC-96 and GID-96 tags, their URI forms, and the
// type(o) extraction function the rule language uses to classify objects
// (paper §2.1).
package epc

import (
	"fmt"
	"strconv"
	"strings"
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

// Scheme identifies an EPC encoding scheme by its 8-bit header.
type Scheme uint8

// Supported 96-bit schemes and their TDS v1.1 header values.
const (
	SchemeUnknown Scheme = 0x00
	SchemeSGTIN96 Scheme = 0x30
	SchemeSSCC96  Scheme = 0x31
	SchemeSGLN96  Scheme = 0x32
	SchemeGID96   Scheme = 0x35
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeSGTIN96:
		return "sgtin-96"
	case SchemeSSCC96:
		return "sscc-96"
	case SchemeSGLN96:
		return "sgln-96"
	case SchemeGID96:
		return "gid-96"
	}
	return fmt.Sprintf("unknown(0x%02X)", uint8(s))
}

// SchemeOf returns the scheme of a binary EPC.
func SchemeOf(b Binary) Scheme {
	switch Scheme(b[0]) {
	case SchemeSGTIN96, SchemeSSCC96, SchemeSGLN96, SchemeGID96:
		return Scheme(b[0])
	}
	return SchemeUnknown
}

// partition describes one row of a TDS partition table.
type partition struct {
	companyBits, companyDigits int
	refBits, refDigits         int
}

// sgtinPartitions is TDS v1.1 table 6 (SGTIN-96): company prefix +
// item reference split.
var sgtinPartitions = [7]partition{
	{40, 12, 4, 1},
	{37, 11, 7, 2},
	{34, 10, 10, 3},
	{30, 9, 14, 4},
	{27, 8, 17, 5},
	{24, 7, 20, 6},
	{20, 6, 24, 7},
}

// ssccPartitions is TDS v1.1 table 9 (SSCC-96): company prefix + serial
// reference split.
var ssccPartitions = [7]partition{
	{40, 12, 18, 5},
	{37, 11, 21, 6},
	{34, 10, 24, 7},
	{30, 9, 28, 8},
	{27, 8, 31, 9},
	{24, 7, 34, 10},
	{20, 6, 38, 11},
}

func pow10(n int) uint64 {
	v := uint64(1)
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

func checkField(name string, v uint64, bits, digits int) error {
	if bits < 64 && v >= 1<<bits {
		return fmt.Errorf("epc: %s %d exceeds %d bits", name, v, bits)
	}
	if digits > 0 && digits < 20 && v >= pow10(digits) {
		return fmt.Errorf("epc: %s %d exceeds %d decimal digits", name, v, digits)
	}
	return nil
}

// SGTIN is a serialized GTIN: one trade item instance (e.g. one tagged
// product).
type SGTIN struct {
	Filter        uint8  // 3 bits
	Partition     uint8  // 0..6
	CompanyPrefix uint64 // per partition
	ItemRef       uint64 // per partition (includes indicator digit)
	Serial        uint64 // 38 bits
}

// Encode packs the SGTIN into a 96-bit EPC.
func (s SGTIN) Encode() (Binary, error) {
	var b Binary
	if s.Filter > 7 {
		return b, fmt.Errorf("epc: sgtin filter %d exceeds 3 bits", s.Filter)
	}
	if s.Partition > 6 {
		return b, fmt.Errorf("epc: sgtin partition %d out of range", s.Partition)
	}
	p := sgtinPartitions[s.Partition]
	if err := checkField("company prefix", s.CompanyPrefix, p.companyBits, p.companyDigits); err != nil {
		return b, err
	}
	if err := checkField("item reference", s.ItemRef, p.refBits, p.refDigits); err != nil {
		return b, err
	}
	if err := checkField("serial", s.Serial, 38, 0); err != nil {
		return b, err
	}
	setBits(&b, 0, 8, uint64(SchemeSGTIN96))
	setBits(&b, 8, 3, uint64(s.Filter))
	setBits(&b, 11, 3, uint64(s.Partition))
	setBits(&b, 14, p.companyBits, s.CompanyPrefix)
	setBits(&b, 14+p.companyBits, p.refBits, s.ItemRef)
	setBits(&b, 58, 38, s.Serial)
	return b, nil
}

// URI renders the tag URI form urn:epc:tag:sgtin-96:f.company.item.serial.
func (s SGTIN) URI() string {
	return fmt.Sprintf("urn:epc:tag:sgtin-96:%d.%d.%d.%d", s.Filter, s.CompanyPrefix, s.ItemRef, s.Serial)
}

// DecodeSGTIN unpacks an SGTIN-96 EPC.
func DecodeSGTIN(b Binary) (SGTIN, error) {
	var s SGTIN
	if Scheme(b[0]) != SchemeSGTIN96 {
		return s, fmt.Errorf("epc: not an sgtin-96 (header 0x%02X)", b[0])
	}
	s.Filter = uint8(getBits(b, 8, 3))
	s.Partition = uint8(getBits(b, 11, 3))
	if s.Partition > 6 {
		return s, fmt.Errorf("epc: sgtin partition %d out of range", s.Partition)
	}
	p := sgtinPartitions[s.Partition]
	s.CompanyPrefix = getBits(b, 14, p.companyBits)
	s.ItemRef = getBits(b, 14+p.companyBits, p.refBits)
	s.Serial = getBits(b, 58, 38)
	return s, nil
}

// SSCC is a serial shipping container code: one logistics unit (case,
// pallet).
type SSCC struct {
	Filter        uint8
	Partition     uint8
	CompanyPrefix uint64
	SerialRef     uint64
}

// Encode packs the SSCC into a 96-bit EPC (the final 24 bits are zero per
// the standard).
func (s SSCC) Encode() (Binary, error) {
	var b Binary
	if s.Filter > 7 {
		return b, fmt.Errorf("epc: sscc filter %d exceeds 3 bits", s.Filter)
	}
	if s.Partition > 6 {
		return b, fmt.Errorf("epc: sscc partition %d out of range", s.Partition)
	}
	p := ssccPartitions[s.Partition]
	if err := checkField("company prefix", s.CompanyPrefix, p.companyBits, p.companyDigits); err != nil {
		return b, err
	}
	if err := checkField("serial reference", s.SerialRef, p.refBits, p.refDigits); err != nil {
		return b, err
	}
	setBits(&b, 0, 8, uint64(SchemeSSCC96))
	setBits(&b, 8, 3, uint64(s.Filter))
	setBits(&b, 11, 3, uint64(s.Partition))
	setBits(&b, 14, p.companyBits, s.CompanyPrefix)
	setBits(&b, 14+p.companyBits, p.refBits, s.SerialRef)
	return b, nil
}

// URI renders urn:epc:tag:sscc-96:f.company.serial.
func (s SSCC) URI() string {
	return fmt.Sprintf("urn:epc:tag:sscc-96:%d.%d.%d", s.Filter, s.CompanyPrefix, s.SerialRef)
}

// DecodeSSCC unpacks an SSCC-96 EPC.
func DecodeSSCC(b Binary) (SSCC, error) {
	var s SSCC
	if Scheme(b[0]) != SchemeSSCC96 {
		return s, fmt.Errorf("epc: not an sscc-96 (header 0x%02X)", b[0])
	}
	s.Filter = uint8(getBits(b, 8, 3))
	s.Partition = uint8(getBits(b, 11, 3))
	if s.Partition > 6 {
		return s, fmt.Errorf("epc: sscc partition %d out of range", s.Partition)
	}
	p := ssccPartitions[s.Partition]
	s.CompanyPrefix = getBits(b, 14, p.companyBits)
	s.SerialRef = getBits(b, 14+p.companyBits, p.refBits)
	return s, nil
}

// sglnPartitions is TDS v1.1 table 12 (SGLN-96): company prefix +
// location reference split.
var sglnPartitions = [7]partition{
	{40, 12, 1, 0},
	{37, 11, 4, 1},
	{34, 10, 7, 2},
	{30, 9, 11, 3},
	{27, 8, 14, 4},
	{24, 7, 17, 5},
	{20, 6, 21, 6},
}

// SGLN is a serialized global location number: readers, docks, shelves
// and other physical locations carry these.
type SGLN struct {
	Filter        uint8
	Partition     uint8
	CompanyPrefix uint64
	LocationRef   uint64
	Extension     uint64 // 41 bits
}

// Encode packs the SGLN into a 96-bit EPC.
func (s SGLN) Encode() (Binary, error) {
	var b Binary
	if s.Filter > 7 {
		return b, fmt.Errorf("epc: sgln filter %d exceeds 3 bits", s.Filter)
	}
	if s.Partition > 6 {
		return b, fmt.Errorf("epc: sgln partition %d out of range", s.Partition)
	}
	p := sglnPartitions[s.Partition]
	if err := checkField("company prefix", s.CompanyPrefix, p.companyBits, p.companyDigits); err != nil {
		return b, err
	}
	if err := checkField("location reference", s.LocationRef, p.refBits, p.refDigits); err != nil {
		return b, err
	}
	if err := checkField("extension", s.Extension, 41, 0); err != nil {
		return b, err
	}
	setBits(&b, 0, 8, uint64(SchemeSGLN96))
	setBits(&b, 8, 3, uint64(s.Filter))
	setBits(&b, 11, 3, uint64(s.Partition))
	setBits(&b, 14, p.companyBits, s.CompanyPrefix)
	setBits(&b, 14+p.companyBits, p.refBits, s.LocationRef)
	setBits(&b, 55, 41, s.Extension)
	return b, nil
}

// URI renders urn:epc:tag:sgln-96:f.company.location.extension.
func (s SGLN) URI() string {
	return fmt.Sprintf("urn:epc:tag:sgln-96:%d.%d.%d.%d", s.Filter, s.CompanyPrefix, s.LocationRef, s.Extension)
}

// DecodeSGLN unpacks an SGLN-96 EPC.
func DecodeSGLN(b Binary) (SGLN, error) {
	var s SGLN
	if Scheme(b[0]) != SchemeSGLN96 {
		return s, fmt.Errorf("epc: not an sgln-96 (header 0x%02X)", b[0])
	}
	s.Filter = uint8(getBits(b, 8, 3))
	s.Partition = uint8(getBits(b, 11, 3))
	if s.Partition > 6 {
		return s, fmt.Errorf("epc: sgln partition %d out of range", s.Partition)
	}
	p := sglnPartitions[s.Partition]
	s.CompanyPrefix = getBits(b, 14, p.companyBits)
	s.LocationRef = getBits(b, 14+p.companyBits, p.refBits)
	s.Extension = getBits(b, 55, 41)
	return s, nil
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
	if err := checkField("manager number", g.Manager, 28, 0); err != nil {
		return b, err
	}
	if err := checkField("object class", g.Class, 24, 0); err != nil {
		return b, err
	}
	if err := checkField("serial", g.Serial, 36, 0); err != nil {
		return b, err
	}
	setBits(&b, 0, 8, uint64(SchemeGID96))
	setBits(&b, 8, 28, g.Manager)
	setBits(&b, 36, 24, g.Class)
	setBits(&b, 60, 36, g.Serial)
	return b, nil
}

// URI renders urn:epc:tag:gid-96:manager.class.serial.
func (g GID) URI() string {
	return fmt.Sprintf("urn:epc:tag:gid-96:%d.%d.%d", g.Manager, g.Class, g.Serial)
}

// DecodeGID unpacks a GID-96 EPC.
func DecodeGID(b Binary) (GID, error) {
	var g GID
	if Scheme(b[0]) != SchemeGID96 {
		return g, fmt.Errorf("epc: not a gid-96 (header 0x%02X)", b[0])
	}
	g.Manager = getBits(b, 8, 28)
	g.Class = getBits(b, 36, 24)
	g.Serial = getBits(b, 60, 36)
	return g, nil
}

// ParseURI parses any supported tag URI back into its typed form.
func ParseURI(uri string) (any, error) {
	rest, ok := strings.CutPrefix(uri, "urn:epc:tag:")
	if !ok {
		return nil, fmt.Errorf("epc: not a tag URI: %q", uri)
	}
	scheme, fields, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("epc: malformed tag URI: %q", uri)
	}
	parts := strings.Split(fields, ".")
	nums := make([]uint64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("epc: bad URI field %q in %q", p, uri)
		}
		nums[i] = v
	}
	switch scheme {
	case "sgtin-96":
		if len(nums) != 4 {
			return nil, fmt.Errorf("epc: sgtin-96 URI needs 4 fields, got %d", len(nums))
		}
		s := SGTIN{Filter: uint8(nums[0]), CompanyPrefix: nums[1], ItemRef: nums[2], Serial: nums[3]}
		s.Partition = partitionForCompany(s.CompanyPrefix, sgtinPartitions)
		return s, nil
	case "sscc-96":
		if len(nums) != 3 {
			return nil, fmt.Errorf("epc: sscc-96 URI needs 3 fields, got %d", len(nums))
		}
		s := SSCC{Filter: uint8(nums[0]), CompanyPrefix: nums[1], SerialRef: nums[2]}
		s.Partition = partitionForCompany(s.CompanyPrefix, ssccPartitions)
		return s, nil
	case "sgln-96":
		if len(nums) != 4 {
			return nil, fmt.Errorf("epc: sgln-96 URI needs 4 fields, got %d", len(nums))
		}
		s := SGLN{Filter: uint8(nums[0]), CompanyPrefix: nums[1], LocationRef: nums[2], Extension: nums[3]}
		s.Partition = partitionForCompany(s.CompanyPrefix, sglnPartitions)
		return s, nil
	case "gid-96":
		if len(nums) != 3 {
			return nil, fmt.Errorf("epc: gid-96 URI needs 3 fields, got %d", len(nums))
		}
		return GID{Manager: nums[0], Class: nums[1], Serial: nums[2]}, nil
	}
	return nil, fmt.Errorf("epc: unsupported scheme %q", scheme)
}

// partitionForCompany picks the smallest partition whose company-prefix
// capacity holds the value (URI forms omit the partition, so we infer it
// from the digit count the value needs).
func partitionForCompany(company uint64, table [7]partition) uint8 {
	for p := 6; p >= 0; p-- {
		if company < pow10(table[p].companyDigits) {
			return uint8(p)
		}
	}
	return 0
}
