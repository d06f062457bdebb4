package epc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestGIDRoundTripProperty(t *testing.T) {
	f := func(m, c, s uint64) bool {
		g := GID{Manager: m % (1 << 28), Class: c % (1 << 24), Serial: s % (1 << 36)}
		b, err := g.Encode()
		if err != nil || b[0] != headerGID96 {
			return false
		}
		got, err := DecodeGID(b)
		if err != nil || got != g {
			return false
		}
		// Hex round trip too.
		b2, err := ParseHex(b.Hex())
		return err == nil && b2 == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := (GID{Manager: 1 << 28}).Encode(); err == nil {
		t.Errorf("GID manager over 28 bits accepted")
	}
	if _, err := (GID{Class: 1 << 24}).Encode(); err == nil {
		t.Errorf("GID object class over 24 bits accepted")
	}
	if _, err := (GID{Serial: 1 << 36}).Encode(); err == nil {
		t.Errorf("GID serial over 36 bits accepted")
	}
}

func TestDecodeWrongScheme(t *testing.T) {
	g, _ := GID{Manager: 1, Class: 2, Serial: 3}.Encode()
	g[0] = 0x30 // the SGTIN-96 header
	if _, err := DecodeGID(g); err == nil {
		t.Errorf("decoding an SGTIN-96 header as GID accepted")
	}
}

func TestParseHexErrors(t *testing.T) {
	if _, err := ParseHex("1234"); err == nil {
		t.Errorf("short hex accepted")
	}
	if _, err := ParseHex(strings.Repeat("Z", 24)); err == nil {
		t.Errorf("non-hex accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.MapGIDClass(4, "laptop")
	r.MapGIDClass(5, "superuser")

	laptop, _ := GID{Manager: 1, Class: 4, Serial: 42}.Encode()
	super, _ := GID{Manager: 1, Class: 5, Serial: 7}.Encode()
	unknownGID, _ := GID{Manager: 1, Class: 99, Serial: 7}.Encode()
	otherScheme := laptop
	otherScheme[0] = 0x30

	cases := map[string]string{
		laptop.Hex():      "laptop",
		super.Hex():       "superuser",
		unknownGID.Hex():  "",
		otherScheme.Hex(): "",
		"mystery":         "",
	}
	for obj, want := range cases {
		if got := r.TypeOf(obj); got != want {
			t.Errorf("TypeOf(%q) = %q, want %q", obj, got, want)
		}
	}
}

func TestBitHelpers(t *testing.T) {
	var b Binary
	setBits(&b, 5, 11, 0x5A5)
	if got := getBits(b, 5, 11); got != 0x5A5 {
		t.Fatalf("bit round trip: %x", got)
	}
	// Overwrite with zeros must clear.
	setBits(&b, 5, 11, 0)
	if got := getBits(b, 0, 24); got != 0 {
		t.Fatalf("clearing failed: %x", got)
	}
}
