package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/faults"
	"rcep/internal/wire"
)

// TestClusterOracleEquivalence is the fault-free baseline: a 4-worker
// cluster delivers exactly the single engine's detection multiset, in
// exactly the in-process sharded engine's deterministic order.
func TestClusterOracleEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		seed := seed
		t.Run(planName(seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			rules := genRules(r, 3+r.Intn(8))
			stream := genStream(r, 60+r.Intn(60))

			oracle := asMultiset(runSingle(t, rules, stream))
			order := runShard(t, rules, stream, 4)
			got, _, err := runCluster(t, seed, 4, rules, stream, nil)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			diffStrings(t, "multiset", oracle, asMultiset(got))
			diffStrings(t, "order", order, got)
		})
	}
}

func planName(seed int64) string { return fmt.Sprintf("seed=%d", seed) }

// TestCoordinatorCheckpointRestart proves the coordinator's own
// checkpoint round-trips mid-stream: detections delivered before the
// checkpoint are not re-delivered, detections after it are not lost, and
// the held fire-time group survives the restart with its tie order.
func TestCoordinatorCheckpointRestart(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{5, 21, 42} {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(8))
		stream := genStream(r, 80+r.Intn(40))
		cut := len(stream) / 2

		want := runShard(t, rules, stream, 4)

		base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
		procs := make([]*workerProc, 3)
		addrs := make([]string, 3)
		for i := range procs {
			procs[i] = newWorkerProc(t, base)
			addrs[i] = procs[i].addr
		}
		cleanup := func() {
			for _, p := range procs {
				p.kill()
			}
		}

		var got []string
		cfg := Config{
			Rules: rules, Shards: 4, Workers: addrs,
			Groups: genGroups, TypeOf: genTypeOf,
			OnDetect:        func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
			SyncEvery:       5,
			CheckpointEvery: 2,
			BarrierTimeout:  time.Second,
			Seed:            seed,
		}
		coord, err := New(cfg)
		if err != nil {
			cleanup()
			t.Fatalf("seed %d: New: %v", seed, err)
		}
		for _, o := range stream[:cut] {
			if err := coord.Ingest(o); err != nil {
				cleanup()
				t.Fatalf("seed %d: Ingest: %v", seed, err)
			}
		}
		var ck bytes.Buffer
		if err := coord.SaveCheckpoint(&ck); err != nil {
			cleanup()
			t.Fatalf("seed %d: SaveCheckpoint: %v", seed, err)
		}
		// Crash the coordinator — no drain, no goodbye. The workers keep
		// running; the restarted coordinator re-places every shard from
		// the checkpointed engine states under fresh epochs.
		coord.Abort()

		cfg.Checkpoint = &ck
		coord2, err := New(cfg)
		if err != nil {
			cleanup()
			t.Fatalf("seed %d: New(restore): %v", seed, err)
		}
		for _, o := range stream[cut:] {
			if err := coord2.Ingest(o); err != nil {
				cleanup()
				t.Fatalf("seed %d: Ingest after restore: %v", seed, err)
			}
		}
		if err := coord2.Close(); err != nil {
			cleanup()
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		cleanup()
		diffStrings(t, "restart order", want, got)
	}
}

// TestCoordinatorRestoreRejectsCorruptCheckpoint proves cluster/v2
// loading never panics on damaged input: truncation at EVERY byte offset
// either restores cleanly (a prefix that happens to decode whole —
// only possible at full length) or fails with an error. A cluster/v1
// document, whose journal held one entry per observation, is refused by
// name.
func TestCoordinatorRestoreRejectsCorruptCheckpoint(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(9))
	rules := genRules(r, 4)
	stream := genStream(r, 30)

	base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
	procs := []*workerProc{newWorkerProc(t, base), newWorkerProc(t, base)}
	addrs := []string{procs[0].addr, procs[1].addr}
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()

	cfg := Config{
		Rules: rules, Shards: 4, Workers: addrs,
		Groups: genGroups, TypeOf: genTypeOf,
		SyncEvery: 4, CheckpointEvery: 1,
		BarrierTimeout: time.Second,
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, o := range stream {
		if err := coord.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	var ck bytes.Buffer
	if err := coord.SaveCheckpoint(&ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	coord.Abort()

	raw := ck.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		cfg.Checkpoint = bytes.NewReader(raw[:cut])
		c2, err := New(cfg) // must never panic
		if err == nil {
			c2.Abort()
			// A cut that drops only the trailing newline still decodes
			// as a complete document; anything shorter must fail.
			if cut < len(raw)-1 {
				t.Fatalf("truncation at %d/%d restored cleanly", cut, len(raw))
			}
		}
	}

	// Bit-flip damage inside an engine checkpoint trips the checksum.
	flipped := append([]byte(nil), raw...)
	at := bytes.Index(flipped, []byte(`"engines"`))
	if at < 0 {
		t.Fatalf("no engines field in checkpoint")
	}
	flipped[at+20] ^= 0x08
	cfg.Checkpoint = bytes.NewReader(flipped)
	if _, err := New(cfg); err == nil {
		t.Fatalf("bit-flipped checkpoint restored cleanly")
	} else if !strings.Contains(err.Error(), "cluster: restore") {
		t.Fatalf("unexpected error for bit flip: %v", err)
	}

	v1 := bytes.Replace(raw, []byte(`"format":"cluster/v2"`), []byte(`"format":"cluster/v1"`), 1)
	if bytes.Equal(v1, raw) {
		t.Fatalf("no cluster/v2 format field in checkpoint")
	}
	cfg.Checkpoint = bytes.NewReader(v1)
	if _, err := New(cfg); err == nil {
		t.Fatalf("cluster/v1 checkpoint restored cleanly")
	} else if !strings.Contains(err.Error(), `"cluster/v1"`) {
		t.Fatalf("cluster/v1 refusal does not name the format: %v", err)
	}
}

// TestWorkerRejectsBadChecksumAssign drives a raw wire client straight
// at a Worker with an assign whose checkpoint does not match its
// checksum: the worker must answer with an error frame echoing the
// assign's sequence and must NOT ack it (second line of defense — the
// coordinator's own pre-check catches rot in its memory, this catches
// corruption on the wire).
func TestWorkerRejectsBadChecksumAssign(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(3))
	rules := genRules(r, 3)
	base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
	p := newWorkerProc(t, base)
	defer p.kill()

	var mu sync.Mutex
	var errs []wire.Message
	cl, err := wire.DialReliable(p.addr, wire.ReliableOptions{
		ClientID: "coord.s0.e1",
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", p.addr)
			if err != nil {
				return nil, err
			}
			if _, err := readBoot(conn, time.Second); err != nil {
				conn.Close()
				return nil, err
			}
			return conn, nil
		},
		Backoff: 10 * time.Millisecond,
		OnFrame: func(m wire.Message) {
			if m.Type == "error" {
				mu.Lock()
				errs = append(errs, m)
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatalf("DialReliable: %v", err)
	}
	defer cl.Abort()

	seq, err := cl.SendFrame(wire.Message{
		Type: "assign", Shard: 0,
		Ck: json.RawMessage(`{"bogus":true}`), Sum: 12345,
	})
	if err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		var found *wire.Message
		for i := range errs {
			if errs[i].Seq == seq {
				found = &errs[i]
				break
			}
		}
		mu.Unlock()
		if found != nil {
			if !strings.Contains(found.Msg, "checksum") {
				t.Fatalf("rejection reason = %q, want checksum mismatch", found.Msg)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no error frame echoing assign seq %d", seq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandoffCorruptCheckpointFallsBack proves the handoff path degrades
// to full journal replay when the stored checkpoint is corrupt: the
// coordinator's checksum pre-check refuses to ship it, the fallback
// rebuilds the shard from the journal, and the detection sequence is
// still exactly the oracle's.
func TestHandoffCorruptCheckpointFallsBack(t *testing.T) {
	t.Parallel()
	seed := int64(77)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 6)
	stream := genStream(r, 120)

	oracle := asMultiset(runSingle(t, rules, stream))
	order := runShard(t, rules, stream, 4)

	// Corrupt every shard's stored checkpoint right before killing a
	// worker: every handoff of that worker's shards must take the
	// rejection → full-replay path.
	plan := &faults.ClusterPlan{Seed: seed}
	for s := 0; s < 8; s++ {
		plan.Faults = append(plan.Faults, faults.ClusterFault{AtObs: 60, Kind: faults.FaultCorruptCheckpoint, Worker: s})
	}
	plan.Faults = append(plan.Faults,
		faults.ClusterFault{AtObs: 60, Kind: faults.FaultKill, Worker: 0},
		faults.ClusterFault{AtObs: 90, Kind: faults.FaultRestart, Worker: 0},
	)

	got, handoffs, err := runCluster(t, seed, 4, rules, stream, plan)
	if err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if handoffs == 0 {
		t.Fatalf("expected at least one handoff")
	}
	diffStrings(t, "multiset", oracle, asMultiset(got))
	diffStrings(t, "order", order, got)
}
