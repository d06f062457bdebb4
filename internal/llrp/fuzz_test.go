package llrp

import (
	"testing"
	"time"

	"rcep/internal/faults"
)

// FuzzDecode: arbitrary bytes must decode cleanly or error — no panics,
// no over-reads, and round-tripping a successfully decoded frame must be
// stable.
func FuzzDecode(f *testing.F) {
	good, _ := Encode(Message{Type: MsgROAccessReport, ID: 7, Tags: []TagReport{
		tag(1, time.Second, -500), tag(2, 2*time.Second, -600),
	}})
	ka, _ := Encode(Message{Type: MsgKeepalive, ID: 1})
	f.Add(good)
	f.Add(ka)
	f.Add([]byte{})
	f.Add([]byte{1, 0x3D, 0, 0, 0, 10, 0, 0, 0, 1})
	f.Add(append(good, ka...))
	// Deterministically corrupted frames (truncations, bit flips, length
	// and header tampering) keep the decoder's error paths covered.
	inj := faults.New(1)
	for _, c := range inj.Corruptions(good, 16) {
		f.Add(c)
	}
	for _, c := range inj.Corruptions(ka, 8) {
		f.Add(c)
	}
	for _, c := range inj.Corruptions(append(append([]byte(nil), good...), ka...), 8) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := decode(data, nil)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("bad consumption: n=%d len=%d", n, len(data))
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		m2, n2, err := decode(re, nil)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-decode failed: %v", err)
		}
		if m2.Type != m.Type || m2.ID != m.ID || len(m2.Tags) != len(m.Tags) {
			t.Fatalf("round trip drift: %+v vs %+v", m, m2)
		}
	})
}
