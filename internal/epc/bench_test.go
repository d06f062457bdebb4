package epc

import "testing"

func BenchmarkHexRoundTrip(b *testing.B) {
	g, _ := GID{Manager: 4711, Class: 2, Serial: 99}.Encode()
	hx := g.Hex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin, err := ParseHex(hx)
		if err != nil {
			b.Fatal(err)
		}
		_ = bin.Hex()
	}
}

func BenchmarkRegistryTypeOf(b *testing.B) {
	r := NewRegistry()
	r.MapGIDClass(2, "case")
	g, _ := GID{Manager: 4711, Class: 2, Serial: 99}.Encode()
	hx := g.Hex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.TypeOf(hx) != "case" {
			b.Fatal("wrong type")
		}
	}
}
