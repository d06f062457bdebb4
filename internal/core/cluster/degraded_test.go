package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
	"rcep/internal/faults"
)

// degradedStats accumulates resilience counters across every coordinator
// incarnation of one degraded run.
type degradedStats struct {
	detaches  int // shards that entered detached mode
	handoffs  int // shard re-placements
	takeovers int // standby coordinator adoptions
}

// runDegraded drives the stream through a cluster configured for
// degraded-mode operation — partition grace, lease, published
// self-checkpoint — applying held
// partitions, coordinator kills (answered by a warm standby takeover),
// sustained overload, and worker crashes from the fault plan. Deliveries
// are deduped across coordinator incarnations by delivery ordinal: a
// successor re-delivers from its restored Delivered() base, and every
// re-delivery must byte-match what the predecessor already delivered.
func runDegraded(t *testing.T, seed int64, workers int, rules []shard.Rule, stream []event.Observation, plan *faults.ClusterPlan) ([]string, degradedStats, error) {
	t.Helper()
	var stats degradedStats
	dir := t.TempDir()
	leasePath := filepath.Join(dir, "coord.lease")
	ckptPath := filepath.Join(dir, "coord.ckpt")

	procs := make([]*workerProc, workers)
	addrs := make([]string, workers)
	for i := range procs {
		base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
		procs[i] = newWorkerProc(t, base)
		addrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()

	r := rand.New(rand.NewSource(seed ^ 0x0de6aded))
	var (
		got      []string
		ord      int
		mismatch error
	)
	onDetect := func(rid int, inst *event.Instance) {
		s := sig(rid, inst)
		if ord < len(got) {
			if got[ord] != s && mismatch == nil {
				mismatch = fmt.Errorf("replayed delivery %d = %s, first delivery was %s", ord, s, got[ord])
			}
		} else {
			got = append(got, s)
		}
		ord++
	}
	syncEvery := 3 + r.Intn(6)
	ckptEvery := 1 + r.Intn(2)
	mkCfg := func(holder string) Config {
		return Config{
			Rules:           rules,
			Shards:          4,
			Workers:         addrs,
			Groups:          genGroups,
			TypeOf:          genTypeOf,
			OnDetect:        onDetect,
			SyncEvery:       syncEvery,
			CheckpointEvery: ckptEvery,
			RetainJournal:   true,
			BarrierTimeout:  time.Second,
			Seed:            seed,
			PartitionGrace:  30 * time.Second,
			LeasePath:       leasePath,
			LeaseHolder:     holder,
			LeaseTTL:        250 * time.Millisecond,
			CheckpointPath:  ckptPath,
		}
	}
	coord, err := New(mkCfg("active"))
	if err != nil {
		return nil, stats, err
	}
	defer func() { coord.Abort() }()

	// takeover simulates the coordinator crash plus the warm standby's
	// adoption: the crash releases nothing — the standby has to wait out
	// the lease TTL, then restores the published checkpoint under a
	// fresh (fencing) term. The driver resumes ingesting from the
	// successor's restored offset and re-verifies re-deliveries from its
	// restored delivery ordinal.
	takeover := func() error {
		stats.detaches += coord.Detaches()
		stats.handoffs += coord.Handoffs()
		coord.Abort()
		sb, err := NewStandby(mkCfg(fmt.Sprintf("standby-%d", stats.takeovers)))
		if err != nil {
			return err
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			c2, err := sb.TryTakeover()
			if err != nil {
				return err
			}
			if c2 != nil {
				coord = c2
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("standby never took over (lease still held?)")
			}
			time.Sleep(25 * time.Millisecond)
		}
		stats.takeovers++
		ord = int(coord.Delivered())
		return nil
	}

	var plans []faults.ClusterFault
	if plan != nil {
		plans = plan.Faults
	}
	fi := 0
	killed := map[int]int{}
	held := map[int]int{}
	i := 0
	for i < len(stream) {
		for fi < len(plans) && plans[fi].AtObs <= i {
			f := plans[fi]
			fi++
			switch f.Kind {
			case faults.FaultPartitionHold:
				target := killTarget(coord, f.Worker, workers)
				held[f.Worker] = target
				procs[target].holdPartition()
			case faults.FaultHeal:
				target, ok := held[f.Worker]
				if !ok {
					target = f.Worker % workers
				}
				procs[target].heal()
				// Reattachment happens at barriers, after the healed
				// link has reconnected and replayed its ring — drive
				// barriers until every detached shard is back (or is
				// someone else's problem: a concurrently killed worker
				// keeps its shard detached until its restart).
				deadline := time.Now().Add(8 * time.Second)
				for coord.Detached() > 0 && time.Now().Before(deadline) {
					if err := coord.Sync(); err != nil {
						return got, stats, err
					}
					time.Sleep(20 * time.Millisecond)
				}
			case faults.FaultCoordKill:
				if err := takeover(); err != nil {
					return got, stats, err
				}
				i = int(coord.Ingested())
			case faults.FaultSlowAll:
				for _, p := range procs {
					p.setSlow()
				}
			case faults.FaultFastAll:
				for _, p := range procs {
					p.setFast()
				}
			case faults.FaultKill:
				target := killTarget(coord, f.Worker, workers)
				killed[f.Worker] = target
				procs[target].kill()
			case faults.FaultRestart:
				target, ok := killed[f.Worker]
				if !ok {
					target = f.Worker % workers
				}
				procs[target].restart()
			}
		}
		if err := coord.Ingest(stream[i]); err != nil {
			return got, stats, err
		}
		i++
	}
	// Whatever is still held or down comes back before the drain — the
	// coordinator needs live workers to finish, exactly like runCluster.
	for _, p := range procs {
		p.heal()
		p.restart()
	}
	if err := coord.Close(); err != nil {
		return got, stats, err
	}
	stats.detaches += coord.Detaches()
	stats.handoffs += coord.Handoffs()
	if mismatch != nil {
		return got, stats, mismatch
	}
	return got, stats, nil
}

// TestClusterDegradedChaosOracle is the degraded-mode counterpart of
// TestClusterChaosOracle: across seeded schedules — every one of which
// holds a ≥30s-of-stream-time network partition against a shard-hosting
// worker, kills the active coordinator (a warm standby adopts the
// published checkpoint after the lease lapses), and runs a sustained
// all-worker overload span; about half also crash-and-restart a second
// worker — the cluster delivers exactly the single-process engine's
// detection multiset in exactly the in-process sharded engine's
// deterministic order.
//
// Same CI contract as the base chaos suite: CHAOS_SEED_BASE fans the
// matrix across jobs, CHAOS_FAILURE_FILE collects failing schedules as
// replayable recipes:
//
//	CHAOS_SEED_BASE=<seed> go test -race -run TestClusterDegradedChaosOracle/seed=<seed> ./internal/core/cluster/
const degradedSchedules = 12

func TestClusterDegradedChaosOracle(t *testing.T) {
	var base int64
	if s := os.Getenv("CHAOS_SEED_BASE"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &base); err != nil {
			t.Fatalf("CHAOS_SEED_BASE=%q: %v", s, err)
		}
	}
	var recMu sync.Mutex
	record := func(plan *faults.ClusterPlan, reason string) {
		path := os.Getenv("CHAOS_FAILURE_FILE")
		if path == "" {
			return
		}
		recMu.Lock()
		defer recMu.Unlock()
		f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("chaos failure file: %v", err)
			return
		}
		defer f.Close()
		fmt.Fprintf(f, "degraded %s :: %s\n", plan, reason)
	}

	for i := 0; i < degradedSchedules; i++ {
		seed := base + int64(i)
		t.Run(planName(seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			rules := genRules(r, 3+r.Intn(8))
			stream := genStream(r, 100+r.Intn(80))
			atNS := make([]int64, len(stream))
			for j, o := range stream {
				atNS[j] = int64(o.At)
			}
			plan := faults.NewDegradedPlan(seed, 4, atNS)

			oracle := asMultiset(runSingle(t, rules, stream))
			order := runShard(t, rules, stream, 4)

			got, stats, err := runDegraded(t, seed, 4, rules, stream, plan)
			if err != nil {
				record(plan, err.Error())
				t.Fatalf("degraded run under %s: %v", plan, err)
			}
			if stats.detaches == 0 {
				record(plan, "no detach despite held partition")
				t.Fatalf("plan %s held a partition but no shard detached", plan)
			}
			if stats.takeovers == 0 {
				record(plan, "no standby takeover despite coordinator kill")
				t.Fatalf("plan %s killed the coordinator but no takeover happened", plan)
			}
			diffStrings(t, "multiset", oracle, asMultiset(got))
			diffStrings(t, "order", order, got)
			if t.Failed() {
				record(plan, "detection mismatch (see test log)")
				t.Logf("fault schedule: %s", plan)
			}
		})
	}
}

// TestClusterPartitionDetachReattach pins the pure partition-tolerance
// path: one worker's network is held for a quarter of the stream, then
// healed. The shard must detach (not hand off — its state was fine all
// along), reattach after the heal, and the run must end with zero
// re-placements and detections exactly equal to both oracles.
func TestClusterPartitionDetachReattach(t *testing.T) {
	seed := int64(7)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 6)
	stream := genStream(r, 140)
	n := len(stream)
	plan := &faults.ClusterPlan{Seed: seed, Faults: []faults.ClusterFault{
		{AtObs: n / 4, Kind: faults.FaultPartitionHold, Worker: 0},
		{AtObs: n / 2, Kind: faults.FaultHeal, Worker: 0},
	}}

	oracle := asMultiset(runSingle(t, rules, stream))
	order := runShard(t, rules, stream, 4)

	got, stats, err := runDegraded(t, seed, 4, rules, stream, plan)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if stats.detaches == 0 {
		t.Fatalf("held partition never detached a shard")
	}
	if stats.handoffs != 0 {
		t.Errorf("pure partition+heal re-placed %d shards, want 0 (detach/reattach only)", stats.handoffs)
	}
	diffStrings(t, "multiset", oracle, asMultiset(got))
	diffStrings(t, "order", order, got)
}

// TestClusterStandbyFailover pins the takeover path in isolation: the
// active coordinator crashes mid-stream with no other fault in flight,
// the warm standby adopts the published checkpoint once the lease
// lapses, and the merged stream stays exactly equal to both oracles.
func TestClusterStandbyFailover(t *testing.T) {
	seed := int64(11)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 5)
	stream := genStream(r, 120)
	plan := &faults.ClusterPlan{Seed: seed, Faults: []faults.ClusterFault{
		{AtObs: len(stream) / 2, Kind: faults.FaultCoordKill},
	}}

	oracle := asMultiset(runSingle(t, rules, stream))
	order := runShard(t, rules, stream, 4)

	got, stats, err := runDegraded(t, seed, 4, rules, stream, plan)
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if stats.takeovers != 1 {
		t.Fatalf("takeovers = %d, want 1", stats.takeovers)
	}
	diffStrings(t, "multiset", oracle, asMultiset(got))
	diffStrings(t, "order", order, got)
}

// TestDetachedCheckpointCarriesJournal: a self-checkpoint published
// while a shard is detached carries the frames journaled for it past its
// frozen engine checkpoint, and a coordinator restored from that
// checkpoint replays them — ending with exactly both oracles' detections.
func TestDetachedCheckpointCarriesJournal(t *testing.T) {
	t.Parallel()
	seed := int64(13)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 6)
	stream := genStream(r, 150)
	cut := len(stream) / 3

	base := WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf}
	procs := make([]*workerProc, 4)
	addrs := make([]string, len(procs))
	for i := range procs {
		procs[i] = newWorkerProc(t, base)
		addrs[i] = procs[i].addr
		defer procs[i].kill()
	}
	ckptPath := filepath.Join(t.TempDir(), "coord.ckpt")
	var got []string
	cfg := Config{
		Rules: rules, Shards: 4, Workers: addrs,
		Groups: genGroups, TypeOf: genTypeOf,
		OnDetect:        func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
		SyncEvery:       4,
		CheckpointEvery: 1,
		BarrierTimeout:  500 * time.Millisecond,
		PartitionGrace:  time.Minute,
		CheckpointPath:  ckptPath,
		Seed:            seed,
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Abort()
	ingest := func(c *Coordinator, obs []event.Observation) {
		t.Helper()
		for _, o := range obs {
			if err := c.Ingest(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(coord, stream[:cut])
	const s0 = 0
	held := procs[coord.Placement()[s0]]
	held.holdPartition()
	ingest(coord, stream[cut:2*cut])
	if coord.Detached() == 0 {
		t.Fatalf("held partition detached no shard")
	}

	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := json.Unmarshal(raw, &ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.Journals[s0]) == 0 {
		t.Fatalf("checkpoint published while shard %d was detached carries no journal suffix for it", s0)
	}
	coord.Abort()
	held.heal()

	cfg.Checkpoint = bytes.NewReader(raw)
	coord2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Abort()
	got = got[:coord2.Delivered()] // the successor re-delivers from its restored ordinal
	ingest(coord2, stream[coord2.Ingested():])
	if err := coord2.Close(); err != nil {
		t.Fatal(err)
	}
	diffStrings(t, "multiset", asMultiset(runSingle(t, rules, stream)), asMultiset(got))
	diffStrings(t, "order", runShard(t, rules, stream, 4), got)
}

// TestClusterLeaseFencesZombie proves the fencing half of failover: a
// paused (not dead) coordinator whose lease lapsed must fail-stop with
// ErrLeaseLost on its next barrier — before it can touch a worker — and
// stay stopped, while the successor finishes the stream correctly.
func TestClusterLeaseFencesZombie(t *testing.T) {
	seed := int64(21)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 4)
	stream := genStream(r, 60)
	dir := t.TempDir()

	procs := make([]*workerProc, 2)
	addrs := make([]string, 2)
	for i := range procs {
		procs[i] = newWorkerProc(t, WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf})
		addrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()

	var (
		got      []string
		ord      int
		mismatch error
	)
	onDetect := func(rid int, inst *event.Instance) {
		s := sig(rid, inst)
		if ord < len(got) {
			if got[ord] != s && mismatch == nil {
				mismatch = fmt.Errorf("replayed delivery %d = %s, first delivery was %s", ord, s, got[ord])
			}
		} else {
			got = append(got, s)
		}
		ord++
	}
	mkCfg := func(holder string) Config {
		return Config{
			Rules: rules, Shards: 4, Workers: addrs,
			Groups: genGroups, TypeOf: genTypeOf, OnDetect: onDetect,
			SyncEvery: 1, CheckpointEvery: 1,
			RetainJournal: true, BarrierTimeout: time.Second, Seed: seed,
			LeasePath:      filepath.Join(dir, "coord.lease"),
			LeaseHolder:    holder,
			LeaseTTL:       150 * time.Millisecond,
			CheckpointPath: filepath.Join(dir, "coord.ckpt"),
		}
	}
	c1, err := New(mkCfg("active"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c1.Abort()
	half := len(stream) / 2
	for _, o := range stream[:half] {
		if err := c1.Ingest(o); err != nil {
			t.Fatalf("active Ingest: %v", err)
		}
	}

	// The active pauses (a GC stall, a VM migration…) long enough for
	// its lease to lapse; the standby takes the term over.
	time.Sleep(400 * time.Millisecond)
	sb, err := NewStandby(mkCfg("standby"))
	if err != nil {
		t.Fatalf("NewStandby: %v", err)
	}
	var c2 *Coordinator
	deadline := time.Now().Add(5 * time.Second)
	for c2 == nil {
		if c2, err = sb.TryTakeover(); err != nil {
			t.Fatalf("TryTakeover: %v", err)
		}
		if c2 == nil && time.Now().After(deadline) {
			t.Fatalf("standby never took over an expired lease")
		}
		if c2 == nil {
			time.Sleep(25 * time.Millisecond)
		}
	}
	defer c2.Abort()
	ord = int(c2.Delivered())

	// The zombie wakes up: its next barrier must fail-stop, and keep
	// failing, with ErrLeaseLost.
	if err := c1.Ingest(stream[half]); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie Ingest = %v, want ErrLeaseLost", err)
	}
	if err := c1.Ingest(stream[half]); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie Ingest after fail-stop = %v, want ErrLeaseLost", err)
	}

	for _, o := range stream[c2.Ingested():] {
		if err := c2.Ingest(o); err != nil {
			t.Fatalf("successor Ingest: %v", err)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("successor Close: %v", err)
	}
	if mismatch != nil {
		t.Fatalf("re-delivery mismatch: %v", mismatch)
	}
	diffStrings(t, "multiset", asMultiset(runSingle(t, rules, stream)), asMultiset(got))
	diffStrings(t, "order", runShard(t, rules, stream, 4), got)
}

// TestClusterColdRestartAgainstLiveWorkers pins incarnation identity:
// two cold-started coordinators (no checkpoint, so both run generation
// 0) feed the same stream back to back against the SAME live workers,
// under the rcepd flag defaults (SyncEvery 64, CheckpointEvery 4, no
// retained journal). If the second incarnation reused the first's wire
// ClientIDs, the workers' stale feeds would re-ack every frame as
// replay — assign included — and the run would silently lose almost
// everything (the failure a -partition-grace CLI drive first exposed:
// the first barrier times out against the stale feed, detaches, and a
// handoff replays only the trimmed journal suffix).
func TestClusterColdRestartAgainstLiveWorkers(t *testing.T) {
	seed := int64(33)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 5)
	stream := genStream(r, 200)

	procs := make([]*workerProc, 2)
	addrs := make([]string, 2)
	for i := range procs {
		procs[i] = newWorkerProc(t, WorkerConfig{Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf})
		addrs[i] = procs[i].addr
	}
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()

	oracle := asMultiset(runSingle(t, rules, stream))
	order := runShard(t, rules, stream, 4)

	run := func() ([]string, *Coordinator) {
		var got []string
		coord, err := New(Config{
			Rules: rules, Shards: 4, Workers: addrs,
			Groups: genGroups, TypeOf: genTypeOf,
			OnDetect:       func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
			PartitionGrace: 30 * time.Second,
			BarrierTimeout: 2 * time.Second,
			Seed:           seed,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer coord.Abort()
		for _, o := range stream {
			if err := coord.Ingest(o); err != nil {
				t.Fatalf("Ingest: %v", err)
			}
		}
		if err := coord.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		return got, coord
	}

	first, _ := run()
	diffStrings(t, "first multiset", oracle, asMultiset(first))
	diffStrings(t, "first order", order, first)

	second, coord := run()
	if coord.Detaches() != 0 || coord.Handoffs() != 0 {
		t.Errorf("fault-free rerun against live workers: %d detach(es), %d handoff(s), want 0/0",
			coord.Detaches(), coord.Handoffs())
	}
	diffStrings(t, "second multiset", oracle, asMultiset(second))
	diffStrings(t, "second order", order, second)
}
