package wire

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rcep"
	"rcep/internal/faults"
)

// detectionKey canonicalizes a detection for multiset comparison.
func detectionKey(d rcep.Detection) string {
	binds := d.Bindings()
	keys := make([]string, 0, len(binds))
	for k := range binds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d", d.RuleID, int64(d.Begin), int64(d.End))
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%v", k, binds[k])
	}
	return b.String()
}

// chaosObservations builds a deterministic 10k-observation stream where
// every 50th observation repeats the previous (reader, object) pair,
// giving dupRule a known set of firings to detect.
func chaosObservations(n int) []struct {
	reader, object string
	at             time.Duration
} {
	obs := make([]struct {
		reader, object string
		at             time.Duration
	}, n)
	for i := 0; i < n; i++ {
		r, o := fmt.Sprintf("r%d", i%5), fmt.Sprintf("o%d", i)
		if i%50 == 49 {
			r, o = fmt.Sprintf("r%d", (i-1)%5), fmt.Sprintf("o%d", i-1)
		}
		obs[i].reader, obs[i].object = r, o
		obs[i].at = time.Duration(i) * 3 * time.Millisecond
	}
	return obs
}

// meanFrameBytes is the mean encoded size of the batch frames a reliable
// client named id sends for obs, measured as one session's FrameWriter
// writes them: symbol definitions included, on the frames that carry them.
func meanFrameBytes(t *testing.T, id string, obs []struct {
	reader, object string
	at             time.Duration
}) int {
	t.Helper()
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for i, o := range obs {
		if err := w.Put(&Message{Type: "batch", ClientID: id, Seq: uint64(i + 1),
			Batch: []BatchObs{{Reader: o.reader, Object: o.object, AtNS: int64(o.at)}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Len() / len(obs)
}

// TestReliableChaosNoLossNoDup is the acceptance test for the resilience
// layer: a ReliableClient feeds 10k observations through connections
// that are forcibly reset every few hundred frames' worth of bytes (some
// torn mid-frame), and the server's detection multiset must match an
// oracle run with no faults at all — zero observation loss, zero
// duplicate detections.
func TestReliableChaosNoLossNoDup(t *testing.T) {
	const n = 10000
	obs := chaosObservations(n)

	// Oracle: an uninterrupted in-process engine over the same stream.
	oracle := map[string]int{}
	eng, err := rcep.New(rcep.Config{
		Rules:       dupRule,
		OnDetection: func(d rcep.Detection) { oracle[detectionKey(d)]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := eng.Ingest(o.reader, o.object, o.at); err != nil {
			t.Fatal(err)
		}
	}
	if len(oracle) == 0 {
		t.Fatal("oracle produced no detections; the chaos run would be vacuous")
	}

	// Chaos run: same stream over a wire with injected resets.
	got := map[string]int{}
	srv, err := NewServer(rcep.Config{
		Rules:       dupRule,
		OnDetection: func(d rcep.Detection) { got[detectionKey(d)]++ },
	}, WithKeepalive(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	// Resets every 400±200 frames, counted in bytes so the schedule does
	// not depend on how many frames share a write.
	frame := meanFrameBytes(t, "chaos-edge", obs)
	inj := faults.New(42,
		faults.WithConnReset(400*frame, 200*frame),
		faults.WithPartialWrites(0.5),
		faults.WithWriteDelay(0.002, time.Millisecond),
	)
	c, err := DialReliable(l.Addr().String(), ReliableOptions{
		ClientID:     "chaos-edge",
		Dial:         inj.Dialer(func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }),
		Backoff:      2 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Seed:         7,
		DrainTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := c.Send(o.reader, o.object, o.at); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}

	if inj.Resets() < 5 {
		t.Fatalf("chaos too gentle: only %d resets injected (want >= 5)", inj.Resets())
	}
	if c.Reconnects() < 5 {
		t.Fatalf("client reconnected only %d times across %d resets", c.Reconnects(), inj.Resets())
	}
	if stats.Observations != n {
		t.Fatalf("engine ingested %d observations, want exactly %d (loss or duplication)", stats.Observations, n)
	}
	// Exact multiset equality against the oracle.
	for k, want := range oracle {
		if got[k] != want {
			t.Fatalf("detection %q: got %d, oracle %d", k, got[k], want)
		}
	}
	for k, have := range got {
		if oracle[k] != have {
			t.Fatalf("unexpected detection %q ×%d not in oracle", k, have)
		}
	}
	t.Logf("survived %d resets / %d reconnects; %d observations, %d distinct detections",
		inj.Resets(), c.Reconnects(), stats.Observations, len(oracle))
}

// TestReliableSpoolRecovery: frames journaled by a client that never
// reached the server survive a simulated process crash and are delivered
// by a successor using the same spool and client ID.
func TestReliableSpoolRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edge.spool")
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	// No server listening: every dial fails, frames stay buffered.
	c, err := DialReliable("127.0.0.1:1", ReliableOptions{
		ClientID:     "edge1",
		Spool:        sp,
		Backoff:      time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		DrainTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Send("dock", fmt.Sprintf("o%d", i), time.Duration(i)*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Close(); err == nil {
		t.Fatal("close succeeded with no server; expected a drain timeout")
	}

	// "Restart": reopen the spool; the successor replays into a live server.
	sp2, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sp2.Pending()); got != 3 {
		t.Fatalf("recovered %d pending frames, want 3", got)
	}
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c2, err := DialReliable(addr, ReliableOptions{
		ClientID:     "edge1",
		Spool:        sp2,
		Backoff:      time.Millisecond,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A post-crash observation continues the same sequence.
	if err := c2.Send("dock", "o3", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := c2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 4 {
		t.Fatalf("server ingested %d observations, want 4 (3 recovered + 1 new)", stats.Observations)
	}
}

// TestReliableResumeSkipsAppliedFrames: if the server already applied
// frames whose acks were lost, the hello exchange releases them without
// re-ingestion.
func TestReliableResumeSkipsAppliedFrames(t *testing.T) {
	srv, addr := startServer(t, rcep.Config{Rules: dupRule})
	// Pretend a previous session delivered seqs 1..2 but the acks never
	// arrived back.
	srv.claimSeq("edge9", 2)

	c, err := DialReliable(addr, ReliableOptions{
		ClientID:     "edge9",
		Backoff:      time.Millisecond,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// These two enqueue as seq 1 and 2 — already applied server-side;
	// the server must drop them while still acking.
	if err := c.Send("dock", "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("dock", "b", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Send("dock", "c", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 1 {
		t.Fatalf("server ingested %d observations, want 1 (two were stale replays)", stats.Observations)
	}
}

// TestServerReapsDeadPeer: with keepalive on, a peer that never writes is
// disconnected by the read deadline instead of holding its handler
// goroutine forever.
func TestServerReapsDeadPeer(t *testing.T) {
	srv, err := NewServer(rcep.Config{Rules: dupRule}, WithKeepalive(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Read pings but never answer; the server must hang up within the
	// 3×keepalive deadline.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	sawPing := false
	start := time.Now()
	for {
		n, err := conn.Read(buf)
		if n > 0 && strings.Contains(string(buf[:n]), `"ping"`) {
			sawPing = true
		}
		if err != nil { // server closed the connection
			break
		}
	}
	if !sawPing {
		t.Fatal("never saw a keepalive ping")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dead peer survived %v; expected reaping near 90ms", elapsed)
	}
}

// TestReliableGivesUpAfterMaxAttempts: a bounded-retry client fails
// terminally instead of blocking forever.
func TestReliableGivesUpAfterMaxAttempts(t *testing.T) {
	c, err := DialReliable("127.0.0.1:1", ReliableOptions{
		ClientID:    "edge2",
		Backoff:     time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.Send("r", "o", 0); err != nil {
			return // terminal failure surfaced
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("client never failed despite MaxAttempts")
}

// TestReliableKeepaliveRedialsSilentPeer: a peer that accepts and then
// never answers is declared dead after 3×Keepalive of silence, and the
// client dials again; meanwhile the client's own pings reach the peer.
func TestReliableKeepaliveRedialsSilentPeer(t *testing.T) {
	const ka = 30 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Buffered past what a run produces (a session every ~3×ka, a ping
	// every ka), so the peer never blocks on the test.
	accepted := make(chan time.Time, 8)
	pings := make(chan struct{}, 64)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- time.Now()
			go func() {
				defer conn.Close()
				fr := NewFrameReader(conn)
				var m Message
				for fr.Read(&m) == nil {
					if m.Type == "ping" {
						pings <- struct{}{}
					}
				}
			}()
		}
	}()
	lost := make(chan time.Time, 8) // OnReconnect must not block the client
	c, err := DialReliable(l.Addr().String(), ReliableOptions{
		ClientID:     "silent-peer",
		Backoff:      time.Millisecond,
		Keepalive:    ka,
		DrainTimeout: 50 * time.Millisecond,
		OnReconnect:  func(int) { lost <- time.Now() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	first := <-accepted
	select {
	case at := <-lost:
		if d := at.Sub(first); d < 2*ka || d > time.Second {
			t.Fatalf("silent peer declared dead after %v, want about %v", d, 3*ka)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client never gave up on a silent peer")
	}
	select {
	case <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("client did not dial again after declaring the peer dead")
	}
	select {
	case <-pings:
	default:
		t.Fatal("the silent peer received no keepalive ping")
	}
}

// TestReliableKeepaliveHoldsIdleSession: a live server that sends nothing
// of its own still answers pings, so an idle feed keeps one session across
// many keepalive intervals.
func TestReliableKeepaliveHoldsIdleSession(t *testing.T) {
	const ka = 20 * time.Millisecond
	_, addr := startServer(t, rcep.Config{Rules: dupRule})
	c, err := DialReliable(addr, ReliableOptions{
		ClientID:     "idle-edge",
		Backoff:      time.Millisecond,
		Keepalive:    ka,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send("dock", "a", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * ka)
	if err := c.Send("dock", "a", time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("idle session was redialed %d times", n)
	}
	if stats.Observations != 2 || stats.Detections != 1 {
		t.Fatalf("stats %+v, want 2 observations and 1 detection", stats)
	}
}
