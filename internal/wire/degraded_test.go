package wire

// Degraded-mode behavior of the wire layer: spool recovery after torn
// writes, client-side load shedding when the unacked ring saturates, and
// the server's bounded admission queue with its status counters.

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync/atomic"
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
	if sp.Quarantined() == 0 {
		t.Fatalf("torn tail was not quarantined")
	}
	q, err := os.ReadFile(sp.QuarantinePath())
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if len(q) != sp.Quarantined() || !bytes.HasSuffix(data[:cut], q) || bytes.Contains(q, []byte("\n")) {
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
	if sp2.Quarantined() != 0 {
		t.Fatalf("clean reopen quarantined %d bytes", sp2.Quarantined())
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
	want := len(corrupt) - len(lines[0])
	if sp.Quarantined() != want {
		t.Fatalf("quarantined %d bytes, want %d", sp.Quarantined(), want)
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

// With DropOldestOnFull the client sheds the stalest observations during
// an outage instead of blocking, and everything still in the ring is
// delivered in order once the link heals.
func TestReliableClientShedsOldestDuringOutage(t *testing.T) {
	srv, addr := startServerOpts(t, rcep.Config{Rules: dupRule})
	var allow atomic.Bool
	var shedObs []int64
	c, err := DialReliable(addr, ReliableOptions{
		ClientID: "edge",
		Dial: func() (net.Conn, error) {
			if !allow.Load() {
				return nil, errors.New("link down")
			}
			return net.Dial("tcp", addr)
		},
		Buffer:           4,
		Backoff:          time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		DropOldestOnFull: true,
		OnShed:           func(m Message) { shedObs = append(shedObs, m.Batch[0].AtNS) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Send("r1", "o", time.Duration(i)*time.Second); err != nil {
			t.Fatalf("Send %d during outage: %v", i, err)
		}
	}
	if got := c.Shed(); got != 16 {
		t.Fatalf("Shed = %d, want 16", got)
	}
	if got := c.Unacked(); got != 4 {
		t.Fatalf("Unacked = %d, want 4", got)
	}
	// OnShed runs under the client's send path with nothing concurrent
	// here; the shed frames must be exactly the oldest 16.
	for i, at := range shedObs {
		if at != int64(i)*int64(time.Second) {
			t.Fatalf("shed[%d] at %d, want oldest-first order", i, at)
		}
	}

	allow.Store(true)
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := srv.Engine().Metrics().Observations; got != 4 {
		t.Fatalf("server applied %d observations, want the 4 survivors", got)
	}
	// The cumulative ack must cover the shed gap: the server saw up to
	// seq 20 even though 16 seqs never arrived.
	if got := srv.SeqState()["edge"]; got != 20 {
		t.Fatalf("server high-water seq = %d, want 20", got)
	}
}

// The admission queue bounds how far frame arrival can run ahead of the
// engine; with drop-oldest it sheds the stalest queued observations and
// surfaces the counters on the status endpoint.
func TestServerAdmissionShedsOldest(t *testing.T) {
	srv, addr := startServerOpts(t, rcep.Config{Rules: dupRule}, WithAdmission(4, true))

	// Stall the engine: the pump blocks applying its first frame, the
	// queue fills to capacity, and every further observation evicts the
	// oldest queued one.
	srv.emu.Lock()
	c, err := DialReliable(addr, ReliableOptions{ClientID: "edge"})
	if err != nil {
		srv.emu.Unlock()
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Send("r1", "o", time.Duration(i)*time.Second); err != nil {
			srv.emu.Unlock()
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Every frame — applied, queued, or shed — is acked, so the sender's
	// ring drains even while the engine is stalled; once Flush returns,
	// all 20 frames have been admitted and the shed counter is final.
	if err := c.Flush(5 * time.Second); err != nil {
		srv.emu.Unlock()
		t.Fatalf("Flush against stalled engine: %v", err)
	}
	// 20 admitted against a capacity-4 queue: 4 queued, 15 or 16 shed
	// (one fewer when the pump grabbed a frame before the queue filled),
	// none blocked.
	shed := srv.Shed()
	if shed != 15 && shed != 16 {
		srv.emu.Unlock()
		t.Fatalf("Shed = %d, want 15 or 16", shed)
	}
	srv.emu.Unlock()

	if _, err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv.Shutdown()
	if got := srv.Engine().Metrics().Observations; got != 20-shed {
		t.Fatalf("engine applied %d observations, want %d (20 admitted - %d shed)", got, 20-shed, shed)
	}
}

// The status frame reports overload counters without disturbing the feed.
func TestWireStatusFrame(t *testing.T) {
	_, addr := startServerOpts(t, rcep.Config{Rules: dupRule}, WithAdmission(8, true))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("r1", "o", sec(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := c.Status()
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if m.Observations == 1 && m.Queue == 0 {
			if m.Shed != 0 {
				t.Fatalf("Shed = %d on an idle server", m.Shed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status never converged: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}
