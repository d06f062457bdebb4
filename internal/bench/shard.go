package bench

import (
	"fmt"
	"io"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
)

// RunShardEngine measures the sharded detection engine (key-space rule
// partitioning + per-shard workers + routed fan-out, internal/core/shard)
// on the workload. The observation stream is fed through the router in
// batches; detections are counted at the merged fan-in, so the result is
// comparable with RunRCEDA.
func RunShardEngine(w *Workload, n int, opts Options) (Result, error) {
	rs, err := w.parseRules()
	if err != nil {
		return Result{}, err
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	var detections uint64
	eng, err := shard.New(shard.Config{
		Rules:       shRules,
		Shards:      n,
		Context:     opts.Context,
		Groups:      w.Groups,
		TypeOf:      w.TypeOf,
		Interpreted: opts.Interpreted,
		OnDetect:    func(int, *event.Instance) { detections++ },
	})
	if err != nil {
		return Result{}, err
	}
	batches := chunks(w.Observations)
	start := time.Now()
	for _, b := range batches {
		if err := eng.IngestBatch(b); err != nil {
			return Result{}, err
		}
	}
	eng.Close()
	elapsed := time.Since(start)
	if err := eng.Err(); err != nil {
		return Result{}, err
	}
	return Result{
		Events:     len(w.Observations),
		Rules:      len(rs.Rules),
		Elapsed:    elapsed,
		Detections: detections,
		Metrics:    eng.Metrics(),
	}, nil
}

// ShardPoint is one measured shard count.
type ShardPoint struct {
	Shards     int // requested
	Workers    int // partition's actual shard count
	ElapsedNS  int64
	Throughput float64
	Detections uint64
	Speedup    float64
}

// ShardReport is a single-engine baseline plus one point per shard count
// on the same supply-chain workload.
type ShardReport struct {
	Workload     string
	Events       int
	Rules        int
	BaselineNS   int64
	BaselineEPS  float64
	BaselineDets uint64
	Points       []ShardPoint
}

// SweepShards measures the sharded engine at each shard count against the
// single-engine baseline on one supply-chain workload.
func SweepShards(shardCounts []int, events, nrules int, seed int64) (*ShardReport, error) {
	w := Fig9Workload(events, nrules, seed, false)
	base, err := RunRCEDA(w, Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: baseline: %w", err)
	}
	rep := &ShardReport{
		Workload:     w.Name,
		Events:       base.Events,
		Rules:        base.Rules,
		BaselineNS:   base.Elapsed.Nanoseconds(),
		BaselineEPS:  base.Throughput(),
		BaselineDets: base.Detections,
	}
	rs, err := w.parseRules()
	if err != nil {
		return nil, err
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	for _, n := range shardCounts {
		r, err := RunShardEngine(w, n, Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: shards=%d: %w", n, err)
		}
		if r.Detections != base.Detections {
			return nil, fmt.Errorf("bench: shards=%d detected %d events, single engine %d — sharding changed semantics",
				n, r.Detections, base.Detections)
		}
		workers := len(shard.NewPartition(shRules, n, w.Groups).ByShard)
		rep.Points = append(rep.Points, ShardPoint{
			Shards:     n,
			Workers:    workers,
			ElapsedNS:  r.Elapsed.Nanoseconds(),
			Throughput: r.Throughput(),
			Detections: r.Detections,
			Speedup:    float64(base.Elapsed) / float64(r.Elapsed),
		})
	}
	return rep, nil
}

// PrintTable renders the sweep like the other benchmark series.
func (r *ShardReport) PrintTable(w io.Writer) {
	fmt.Fprintf(w, "shard sweep: %s\n", r.Workload)
	fmt.Fprintf(w, "%10s %10s %12s %14s %10s\n", "shards", "workers", "elapsed", "events/sec", "speedup")
	fmt.Fprintf(w, "%10s %10s %12s %14.0f %10s\n", "single", "1",
		time.Duration(r.BaselineNS), r.BaselineEPS, "1.00x")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10d %10d %12s %14.0f %9.2fx\n",
			p.Shards, p.Workers, time.Duration(p.ElapsedNS), p.Throughput, p.Speedup)
	}
}
