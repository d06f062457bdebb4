package faults

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// ClusterFaultKind names one kind of injected cluster failure.
type ClusterFaultKind int

const (
	// FaultKill crashes a worker process: connections sever and the
	// worker's engine state is gone (next incarnation has a new boot ID).
	FaultKill ClusterFaultKind = iota
	// FaultRestart brings a previously killed worker back on the same
	// address with a fresh boot ID.
	FaultRestart
	// FaultPartition severs a worker's live connections but keeps its
	// process (and engine state) intact — the reconnect replays through.
	FaultPartition
	// FaultSlow makes a worker's writes lag, provoking barrier timeouts
	// and spurious (but correctness-neutral) handoffs.
	FaultSlow
	// FaultCorruptCheckpoint flips bytes in the coordinator's stored
	// checkpoint for one shard (Worker holds the shard index), forcing
	// the assign-rejection → full-journal-replay fallback at the next
	// handoff.
	FaultCorruptCheckpoint
	// FaultPartitionHold severs a worker's connections AND rejects every
	// reconnect until a matching FaultHeal — a held network partition,
	// not a blip. The degraded-mode suite pairs it with a coordinator
	// running under a PartitionGrace.
	FaultPartitionHold
	// FaultHeal ends a FaultPartitionHold on the same worker.
	FaultHeal
	// FaultCoordKill crashes the active coordinator (no drain, no lease
	// release); the driver's warm standby adopts the published
	// checkpoint once the lease expires.
	FaultCoordKill
	// FaultSlowAll and FaultFastAll bracket a sustained overload span:
	// every worker's write path lags (service rate below offered rate),
	// then recovers.
	FaultSlowAll
	FaultFastAll
)

func (k ClusterFaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultRestart:
		return "restart"
	case FaultPartition:
		return "partition"
	case FaultSlow:
		return "slow"
	case FaultCorruptCheckpoint:
		return "corrupt-checkpoint"
	case FaultPartitionHold:
		return "partition-hold"
	case FaultHeal:
		return "heal"
	case FaultCoordKill:
		return "coord-kill"
	case FaultSlowAll:
		return "slow-all"
	case FaultFastAll:
		return "fast-all"
	}
	return fmt.Sprintf("ClusterFaultKind(%d)", int(k))
}

// ClusterFault is one scheduled failure: inject Kind against Worker just
// before ingesting the AtObs-th observation of the stream.
type ClusterFault struct {
	AtObs  int
	Kind   ClusterFaultKind
	Worker int // target worker index (FaultCorruptCheckpoint: shard index)
}

// ClusterPlan is a seeded, reproducible cluster fault schedule.
type ClusterPlan struct {
	Seed   int64
	Faults []ClusterFault // ascending AtObs; ties apply in slice order
}

// NewClusterPlan draws a fault schedule for a stream of streamLen
// observations against a cluster of workers. Every plan is guaranteed to
// kill at least one worker mid-stream and restart it before the stream
// ends — the recovery path under test — and may add a second kill, a
// partition, a slow worker, and a corrupt stored checkpoint (placed just
// before a kill so the fallback is actually exercised). Two calls with
// the same arguments produce the same plan.
func NewClusterPlan(seed int64, workers, streamLen int) *ClusterPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &ClusterPlan{Seed: seed}
	if workers < 1 || streamLen < 8 {
		return p
	}
	kills := 1 + rng.Intn(2)
	for k := 0; k < kills; k++ {
		w := rng.Intn(workers)
		at := 1 + streamLen/8 + rng.Intn(streamLen/2)
		back := at + 1 + rng.Intn(streamLen/4+1)
		if back >= streamLen {
			back = streamLen - 1
		}
		if back <= at {
			continue
		}
		if rng.Intn(3) == 0 {
			// Sometimes the stored checkpoint for a random shard is
			// corrupt when the kill forces a handoff.
			p.Faults = append(p.Faults, ClusterFault{AtObs: at, Kind: FaultCorruptCheckpoint, Worker: rng.Intn(workers * 4)})
		}
		p.Faults = append(p.Faults,
			ClusterFault{AtObs: at, Kind: FaultKill, Worker: w},
			ClusterFault{AtObs: back, Kind: FaultRestart, Worker: w},
		)
	}
	if rng.Intn(2) == 0 {
		p.Faults = append(p.Faults, ClusterFault{
			AtObs: 1 + rng.Intn(streamLen-2), Kind: FaultPartition, Worker: rng.Intn(workers),
		})
	}
	if rng.Intn(3) == 0 {
		p.Faults = append(p.Faults, ClusterFault{
			AtObs: 1 + rng.Intn(streamLen-2), Kind: FaultSlow, Worker: rng.Intn(workers),
		})
	}
	slices.SortStableFunc(p.Faults, func(a, b ClusterFault) int { return cmp.Compare(a.AtObs, b.AtObs) })
	return p
}

// NewDegradedPlan draws a degraded-mode fault schedule for a stream
// whose observation timestamps (in nanoseconds, non-decreasing) are
// atNS. Every plan is guaranteed to hold a network partition against
// one worker for at least minPartitionNS of virtual stream time (30s),
// kill the coordinator once mid-stream, and run a sustained overload
// span where every worker's write path lags; about half the plans also
// kill and restart a second worker on top. Two calls with the same
// arguments produce the same plan.
func NewDegradedPlan(seed int64, workers int, atNS []int64) *ClusterPlan {
	const minPartitionNS = 30_000_000_000
	rng := rand.New(rand.NewSource(seed ^ 0xde96aded))
	p := &ClusterPlan{Seed: seed}
	n := len(atNS)
	if workers < 1 || n < 24 {
		return p
	}

	// A held partition spanning ≥30s of stream time: the heal index is
	// computed from the timestamps, not guessed from the average step.
	w := rng.Intn(workers)
	hold := 1 + n/8 + rng.Intn(n/8+1)
	heal := hold + 1
	for heal < n-1 && atNS[heal]-atNS[hold] < minPartitionNS {
		heal++
	}
	p.Faults = append(p.Faults,
		ClusterFault{AtObs: hold, Kind: FaultPartitionHold, Worker: w},
		ClusterFault{AtObs: heal, Kind: FaultHeal, Worker: w},
	)

	// One coordinator kill — sometimes inside the partition window (the
	// standby then adopts a checkpoint whose detached shard is covered
	// by its journal suffix), sometimes after it.
	kill := 1 + n/3 + rng.Intn(n/2)
	if kill >= n {
		kill = n - 1
	}
	p.Faults = append(p.Faults, ClusterFault{AtObs: kill, Kind: FaultCoordKill})

	// A sustained overload span: all workers slow for ~a sixth of the
	// stream.
	s0 := 1 + rng.Intn(n/2)
	s1 := s0 + n/6
	if s1 >= n {
		s1 = n - 1
	}
	p.Faults = append(p.Faults,
		ClusterFault{AtObs: s0, Kind: FaultSlowAll},
		ClusterFault{AtObs: s1, Kind: FaultFastAll},
	)

	// About half the plans also crash-and-restart a second worker.
	if workers > 1 && rng.Intn(2) == 0 {
		w2 := (w + 1 + rng.Intn(workers-1)) % workers
		at := 1 + n/4 + rng.Intn(n/2)
		back := at + 1 + rng.Intn(n/4+1)
		if back >= n {
			back = n - 1
		}
		if back > at {
			p.Faults = append(p.Faults,
				ClusterFault{AtObs: at, Kind: FaultKill, Worker: w2},
				ClusterFault{AtObs: back, Kind: FaultRestart, Worker: w2},
			)
		}
	}
	slices.SortStableFunc(p.Faults, func(a, b ClusterFault) int { return cmp.Compare(a.AtObs, b.AtObs) })
	return p
}

// String renders the plan compactly — the reproduction recipe a failing
// chaos test logs (and CI uploads as an artifact).
func (p *ClusterPlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for _, f := range p.Faults {
		fmt.Fprintf(&b, " @%d:%s(w%d)", f.AtObs, f.Kind, f.Worker)
	}
	return b.String()
}
