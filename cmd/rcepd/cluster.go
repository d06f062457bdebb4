// Cluster-mode roles for rcepd: -role worker hosts shard detection
// engines for a remote coordinator; -role coordinator places the rule
// partition onto workers, feeds them a CSV observation stream, and
// prints the merged detections in deterministic order.
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rcep/internal/core/cluster"
	"rcep/internal/core/event"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
	"rcep/internal/sim"
	"rcep/internal/stream"
)

// shardRules compiles a rule script into the numbered event-expression
// list both cluster roles partition identically.
func shardRules(script string) ([]shard.Rule, error) {
	rs, err := rules.ParseScript(script)
	if err != nil {
		return nil, err
	}
	out := make([]shard.Rule, 0, len(rs.Rules))
	for i, r := range rs.Rules {
		out = append(out, shard.Rule{ID: i + 1, Expr: r.Event})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("rule script defines no rules")
	}
	return out, nil
}

// runWorker serves shard engines until SIGINT/SIGTERM.
func runWorker(addr, script, bootID string, shards int, simTypes bool) {
	rls, err := shardRules(script)
	if err != nil {
		log.Fatal(err)
	}
	if bootID == "" {
		bootID = fmt.Sprintf("pid%d-%d", os.Getpid(), time.Now().UnixNano())
	}
	cfg := cluster.WorkerConfig{Rules: rls, Shards: shards, BootID: bootID}
	if simTypes {
		cfg.TypeOf = sim.NewRegistry().TypeOf
	}
	w, err := cluster.NewWorker(cfg)
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("rcepd worker on %s (boot %s, %d rules)", l.Addr(), bootID, len(rls))

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("worker shutting down")
		l.Close()
	}()
	w.Serve(l)
	w.Stop()
	log.Printf("rcepd worker stopped")
}

// coordOpts carries the degraded-mode coordinator flags: lease-based
// fencing/failover, the published self-checkpoint a standby adopts, and
// the partition grace that keeps a flaky worker's shard detached instead
// of re-placing it.
type coordOpts struct {
	leasePath      string
	leaseHolder    string
	leaseTTL       time.Duration
	checkpointPath string
	partitionGrace time.Duration
	standby        bool
}

// runCoordinator streams observation CSV (stdin or -input) through a
// worker fleet and prints merged detections. With -standby it first
// waits for the active coordinator's lease to lapse, adopts the
// published checkpoint, and resumes the stream from the restored offset.
func runCoordinator(script, workerList, input string, shards int, simTypes bool, opt coordOpts) {
	rls, err := shardRules(script)
	if err != nil {
		log.Fatal(err)
	}
	workers := strings.Split(workerList, ",")
	for i := range workers {
		workers[i] = strings.TrimSpace(workers[i])
		if workers[i] == "" {
			log.Fatal("empty worker address in -cluster-workers")
		}
	}
	cfg := cluster.Config{
		Rules:   rls,
		Shards:  shards,
		Workers: workers,
		OnDetect: func(rid int, inst *event.Instance) {
			fmt.Printf("FIRE r%-3d [%v .. %v] %v\n", rid, inst.Begin, inst.End, inst.Binds)
		},
		LeasePath:      opt.leasePath,
		LeaseHolder:    opt.leaseHolder,
		LeaseTTL:       opt.leaseTTL,
		CheckpointPath: opt.checkpointPath,
		PartitionGrace: opt.partitionGrace,
		OnDetach: func(s, w int, cause error) {
			log.Printf("shard %d detached from worker %d (journaling until reattach or grace expiry): %v", s, w, cause)
		},
		OnHandoff: func(s, from, to int, cause error) {
			log.Printf("shard %d handed off worker %d -> %d: %v", s, from, to, cause)
		},
	}
	if simTypes {
		cfg.TypeOf = sim.NewRegistry().TypeOf
	}
	var coord *cluster.Coordinator
	if opt.standby {
		sb, err := cluster.NewStandby(cfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("rcepd standby: watching lease %s (ttl %s)", opt.leasePath, opt.leaseTTL)
		for coord == nil {
			if coord, err = sb.TryTakeover(); err != nil {
				log.Fatal(err)
			}
			if coord == nil {
				time.Sleep(opt.leaseTTL / 4)
			}
		}
		log.Printf("rcepd standby: took over at observation %d (%d delivered)", coord.Ingested(), coord.Delivered())
	} else if coord, err = cluster.New(cfg); err != nil {
		log.Fatal(err)
	}
	log.Printf("rcepd coordinator: %d rules in %d shard(s) across %d worker(s), placement %v",
		len(rls), coord.Shards(), len(workers), coord.Placement())

	var in io.Reader = os.Stdin
	if input != "" && input != "-" {
		f, err := os.Open(input)
		if err != nil {
			coord.Abort()
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	// After a takeover the checkpoint already covers a stream prefix:
	// skip past it so the successor ingests exactly the remainder.
	skip := coord.Ingested()
	var seen uint64
	n, err := stream.ReadCSV(in, func(o event.Observation) error {
		if seen++; seen <= skip {
			return nil
		}
		return coord.Ingest(o)
	})
	if err != nil {
		coord.Abort()
		log.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("fed %d observations, %d handoff(s), %d detach(es)", n, coord.Handoffs(), coord.Detaches())
}
