package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"rcep/internal/core/cluster"
	"rcep/internal/core/event"
	"rcep/internal/core/shard"
)

// TestSupervisedClusterCoordinatorRestart runs the pipeline into a
// cluster coordinator and restarts the coordinator mid-stream from its
// own checkpoint — at the exact moment it is HOLDING an undelivered
// fire-time tie group (two rules completing at the same instant). The
// held group must survive the restart: delivered exactly once, after the
// clock passes its fire time, in (fire, rule, seq) order.
func TestSupervisedClusterCoordinatorRestart(t *testing.T) {
	prim := func(reader, objVar, timeVar string) *event.Prim {
		return &event.Prim{
			Reader: event.Term{Lit: reader},
			Object: event.Term{Var: objVar},
			At:     event.Term{Var: timeVar},
		}
	}
	// Both rules complete on the same rB observation, so their
	// detections share a fire instant and form one tie group.
	rules := []shard.Rule{
		{ID: 1, Expr: &event.Within{X: &event.Seq{L: prim("rA", "x1", "t1"), R: prim("rB", "x2", "t2")}, Max: 10 * time.Second}},
		{ID: 2, Expr: &event.Within{X: &event.Seq{L: prim("rC", "y1", "u1"), R: prim("rB", "y2", "u2")}, Max: 10 * time.Second}},
	}
	sec := func(s int) event.Time { return event.Time(time.Duration(s) * time.Second) }
	stream := []event.Observation{
		{Reader: "rA", Object: "o", At: sec(1)},
		{Reader: "rC", Object: "o", At: sec(2)},
		{Reader: "rB", Object: "o", At: sec(3)}, // both rules fire at t=3
		{Reader: "rA", Object: "p", At: sec(4)}, // clock passes 3 → group deliverable
		{Reader: "rB", Object: "p", At: sec(5)}, // second tie group (rule 1 only)
		{Reader: "rD", Object: "q", At: sec(6)},
	}
	sig := func(rid int, inst *event.Instance) string {
		return fmt.Sprintf("%d|%s|%s|%s", rid, inst.Begin, inst.End, inst.Binds.String())
	}

	// Order oracle: the in-process sharded engine over the same
	// partition.
	var want []string
	oracle, err := shard.New(shard.Config{
		Rules: rules, Shards: 4,
		OnDetect: func(rid int, inst *event.Instance) { want = append(want, sig(rid, inst)) },
	})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	for _, o := range stream {
		if err := oracle.Ingest(o); err != nil {
			t.Fatalf("oracle Ingest: %v", err)
		}
	}
	oracle.Close()
	if len(want) < 3 {
		t.Fatalf("oracle produced %d detections, workload wants >= 3", len(want))
	}

	// Two real workers over TCP.
	var addrs []string
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Rules: rules, Shards: 4,
			BootID: fmt.Sprintf("w%d-%s", i, l.Addr()),
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		go w.Serve(l)
		defer func() { l.Close(); w.Stop() }()
		addrs = append(addrs, l.Addr().String())
	}

	var got []string
	cfg := cluster.Config{
		Rules: rules, Shards: 4, Workers: addrs,
		OnDetect:        func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
		SyncEvery:       1, // barrier each obs: the tie group is pending at the swap
		CheckpointEvery: 1,
		BarrierTimeout:  2 * time.Second,
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	defer func() { coord.Abort() }()

	deliveredAtSwap := -1
	ingested := 0
	ingest := func(o event.Observation) error {
		if err := coord.Ingest(o); err != nil {
			return err
		}
		ingested++
		if ingested == 3 {
			// The t=3 tie group was just merged and is being held
			// (fire == now). Crash-restart the coordinator here.
			deliveredAtSwap = len(got)
			var ck bytes.Buffer
			if err := coord.SaveCheckpoint(&ck); err != nil {
				return fmt.Errorf("SaveCheckpoint: %w", err)
			}
			coord.Abort()
			cfg2 := cfg
			cfg2.Checkpoint = &ck
			next, err := cluster.New(cfg2)
			if err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			coord = next
		}
		return nil
	}

	err = RunBatches(context.Background(), BatchedConfig{
		Source: BatchSliceSource(chunk(stream, 2)),
		Sink: func(b event.Batch) error {
			for _, o := range b {
				if err := ingest(o); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("RunBatches: %v", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	if deliveredAtSwap != 0 {
		t.Fatalf("tie group was already delivered (%d detections) before the swap — the held-group scenario did not occur", deliveredAtSwap)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %d detections across the restart, oracle has %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("detection %d = %s, oracle %s", i, got[i], want[i])
		}
	}
}
