package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rcep"
)

// TestLegacySpoolObsFramesBecomeBatches: a spool written by an older
// client journals one "obs" frame per observation. Opening it turns each
// unacked one into a one-observation batch frame under its original seq,
// compacts the file to those frames, and a client resuming from it
// delivers exactly the observations the server never acknowledged.
func TestLegacySpoolObsFramesBecomeBatches(t *testing.T) {
	raw, err := os.ReadFile("testdata/legacy_obs.spool")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"type":"obs"`)) {
		t.Fatal("fixture holds no legacy obs frames")
	}
	path := filepath.Join(t.TempDir(), "edge.spool")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenSpool(path)
	if err != nil {
		t.Fatal(err)
	}
	const id = "edge-legacy"
	one := func(seq uint64, reader, object string, at time.Duration) Message {
		return Message{Type: "batch", ClientID: id, Seq: seq, Batch: []BatchObs{{Reader: reader, Object: object, AtNS: int64(at)}}}
	}
	want := []Message{
		one(2, "dock1", "p2", 2*time.Second),
		one(3, "dock1", "p2", 3*time.Second),
		{Type: "advance", ClientID: id, Seq: 4, AtNS: int64(4 * time.Second)},
		one(5, "dock2", "p3", 5*time.Second),
	}
	if got := sp.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pending\n got %+v\nwant %+v", got, want)
	}
	if sp.LastSeq() != 5 || sp.LastAck() != 1 {
		t.Fatalf("LastSeq %d, LastAck %d, want 5 and 1", sp.LastSeq(), sp.LastAck())
	}
	if compacted, err := os.ReadFile(path); err != nil || bytes.Contains(compacted, []byte(`"type":"obs"`)) {
		t.Fatalf("compacted spool still holds obs frames (%v):\n%s", err, compacted)
	}

	srv, addr := startServer(t, rcep.Config{Rules: dupRule})
	var fires []Message // appended on the read goroutine, read after Close
	c, err := DialReliable(addr, ReliableOptions{ClientID: id, Spool: sp, Buffer: 16,
		OnFire: func(m Message) { fires = append(fires, m) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Observations != 3 || stats.Detections != 1 || srv.ackedSeq(id) != 5 {
		t.Fatalf("stats %+v, server seq %d: want 3 observations, 1 detection, seq 5", stats, srv.ackedSeq(id))
	}
	if len(fires) != 1 || fires[0].Bindings["o"] != "p2" || fires[0].BeginNS != int64(2*time.Second) {
		t.Fatalf("firings %+v, want the p2 duplicate at 2s", fires)
	}
}
