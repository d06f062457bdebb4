package wire

// Degraded-mode behavior of the wire layer: spool recovery after torn
// writes, a full unacked ring refusing TrySendFrame, and the status frame.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"rcep"
)

func startServerOpts(t *testing.T, cfg rcep.Config, opts ...Option) (*Server, string) {
	t.Helper()
	srv, err := NewServer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = srv.Serve(l) }()
	return srv, l.Addr().String()
}

func spoolWith(t *testing.T, path string, n int) {
	t.Helper()
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		m := Message{Type: "batch", ClientID: "edge", Seq: uint64(i), Batch: []BatchObs{{Reader: "r1", Object: "o", AtNS: int64(i)}}}
		if err := sp.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
}

func pendingSeqs(sp *Spool) []uint64 {
	var out []uint64
	for _, m := range sp.Pending() {
		out = append(out, m.Seq)
	}
	return out
}

// quarantined returns the bytes the spool's opens moved to its side file.
func quarantined(t *testing.T, sp *Spool) []byte {
	t.Helper()
	q, err := os.ReadFile(sp.QuarantinePath())
	if err != nil && !os.IsNotExist(err) {
		t.Fatalf("quarantine file: %v", err)
	}
	return q
}

// An unclean shutdown that tears the final journal record must not crash
// recovery or silently discard evidence: the good prefix replays, the
// torn suffix moves to the .quarantine side file, and the spool stays
// appendable.
func TestSpoolQuarantinesTornTail(t *testing.T) {
	path := t.TempDir() + "/edge.spool"
	spoolWith(t, path, 3)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(data) - 7 // mid-way through the final record
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("recovery crashed on torn tail: %v", err)
	}
	if got := pendingSeqs(sp); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("pending after torn tail = %v, want [1 2]", got)
	}
	q := quarantined(t, sp)
	if len(q) == 0 {
		t.Fatalf("torn tail was not quarantined")
	}
	if !bytes.HasSuffix(data[:cut], q) || bytes.Contains(q, []byte("\n")) {
		t.Fatalf("quarantine holds %q, want the torn final fragment of %q", q, data[:cut])
	}
	if sp.LastSeq() != 2 {
		t.Fatalf("LastSeq after torn tail = %d, want 2", sp.LastSeq())
	}

	// The spool keeps working: the torn frame's seq was never confirmed,
	// so the feed re-journals from seq 3 and a clean reopen sees it.
	if err := sp.Append(Message{Type: "batch", ClientID: "edge", Seq: 3, Batch: []BatchObs{{Reader: "r1", Object: "o", AtNS: 3}}}); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	sp2, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingSeqs(sp2); len(got) != 3 {
		t.Fatalf("pending after repair = %v, want [1 2 3]", got)
	}
	if n := len(quarantined(t, sp2)) - len(q); n != 0 {
		t.Fatalf("clean reopen quarantined %d bytes", n)
	}
	_ = sp2.Close()
}

// Corruption in the middle of the journal rejects everything from the
// first bad record on — later entries' ordering can no longer be
// trusted — and preserves the whole suspect suffix for inspection.
func TestSpoolQuarantinesMidFileCorruption(t *testing.T) {
	path := t.TempDir() + "/edge.spool"
	spoolWith(t, path, 3)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Chop record 2 mid-way: its fragment fuses with record 3 into one
	// undecodable line.
	corrupt := append(append([]byte{}, lines[0]...), lines[1][:len(lines[1])/2]...)
	corrupt = append(corrupt, lines[2]...)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatalf("recovery crashed on mid-file corruption: %v", err)
	}
	if got := pendingSeqs(sp); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pending after mid-file corruption = %v, want [1]", got)
	}
	if q, want := quarantined(t, sp), corrupt[len(lines[0]):]; !bytes.Equal(q, want) {
		t.Fatalf("quarantined %q, want %q", q, want)
	}
	_ = sp.Close()
}

// TrySendFrame without a shed policy refuses to block: a full ring is an
// explicit ErrRingFull, not a stall.
func TestTrySendFrameRingFull(t *testing.T) {
	c, err := DialReliable("none", ReliableOptions{
		ClientID: "edge",
		Dial:     func() (net.Conn, error) { return nil, errors.New("link down") },
		Buffer:   2,
		Backoff:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	for i := 0; i < 2; i++ {
		if _, err := c.TrySendFrame(Message{Type: "batch", Batch: []BatchObs{{Reader: "r", Object: "o", AtNS: int64(i)}}}); err != nil {
			t.Fatalf("TrySendFrame %d: %v", i, err)
		}
	}
	if _, err := c.TrySendFrame(Message{Type: "batch", Batch: []BatchObs{{Reader: "r", Object: "o", AtNS: 2}}}); !errors.Is(err, ErrRingFull) {
		t.Fatalf("full ring: err = %v, want ErrRingFull", err)
	}
	if c.Unacked() != 2 {
		t.Fatalf("Unacked = %d, want 2", c.Unacked())
	}
}

// The status frame reports engine progress without disturbing the feed.
func TestWireStatusFrame(t *testing.T) {
	_, addr := startServerOpts(t, rcep.Config{Rules: dupRule})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := NewFrameReader(conn)
	batch, err := json.Marshal(Message{Type: "batch", Batch: []BatchObs{{Reader: "r1", Object: "o", AtNS: int64(sec(1))}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := conn.Write([]byte(`{"type":"status"}`)); err != nil {
			t.Fatal(err)
		}
		got := readUntil(t, conn, fr, func(m Message) bool { return m.Type == "status" })
		m := got[len(got)-1]
		if m.Observations == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never converged: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}
