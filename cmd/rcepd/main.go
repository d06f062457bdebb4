// Command rcepd serves an RFID complex event processing engine over TCP
// (see internal/wire for the protocol). Edge readers stream observations;
// every connected client receives rule firings; the embedded RFID data
// store answers SQL queries.
//
// Usage:
//
//	rcepd -rules rules.rcep [-addr :7411] [-simtypes] [-snapshot store.json]
//	rcepd -role worker -rules rules.rcep -addr :7412 [-boot-id edge-a]
//	rcepd -role coordinator -rules rules.rcep -cluster-workers :7412,:7413 [-input obs.csv]
//	rcepd -role coordinator -standby -lease coord.lease -coord-checkpoint coord.ckpt ...
//
// With -snapshot, the data store is restored from the file at startup and
// saved back on SIGINT/SIGTERM. On shutdown the server first stops
// accepting, then drains every connection (flushing final cumulative
// acks so reliable feeders do not replay into the next incarnation), and
// only then snapshots — the file also carries the per-client sequence
// state ("rcepd/v2" envelope). A file in any other format, such as a bare
// engine checkpoint from before the envelope, is refused by name.
//
// -role worker and -role coordinator run the distributed cluster mode
// (see internal/core/cluster and docs/OPERATIONS.md).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rcep"
	"rcep/internal/prof"
	"rcep/internal/sim"
	"rcep/internal/wire"
)

// snapshotV2 is the rcepd/v2 snapshot envelope: the engine checkpoint
// plus the wire server's per-client cumulative ack state, so a restart
// neither replays acked frames nor re-applies them.
type snapshotV2 struct {
	Format string            `json:"format"`
	Seq    map[string]uint64 `json:"seq,omitempty"`
	Engine json.RawMessage   `json:"engine"`
}

func main() {
	var (
		rulesPath = flag.String("rules", "", "rule script file (required)")
		addr      = flag.String("addr", "127.0.0.1:7411", "listen address")
		simTypes  = flag.Bool("simtypes", false, "resolve type(o) via the simulator's GID registry")
		snapshot  = flag.String("snapshot", "", "checkpoint file: store + in-flight detection state (load at start, save on shutdown)")
		reorder   = flag.Duration("reorder", 0, "out-of-order tolerance across connections (0 = off)")
		keepalive = flag.Duration("keepalive", 0, "keepalive ping interval; peers silent for 3 intervals are reaped (0 = off)")
		shards    = flag.Int("shards", 1, "max parallel detection engines; rules partition by reader/group key space (1 = classic single engine)")
		role      = flag.String("role", "server", "server | worker | coordinator (cluster mode)")
		clusterWs = flag.String("cluster-workers", "", "comma-separated worker addresses (coordinator role)")
		bootID    = flag.String("boot-id", "", "worker incarnation ID; must differ across restarts (worker role; default pid+start time)")
		input     = flag.String("input", "-", "observation CSV, - for stdin (coordinator role)")
		admit     = flag.Int("admit", 0, "bounded admission queue capacity between connections and the engine (0 = direct)")
		admitShed = flag.Bool("admit-shed", false, "shed the oldest queued observation when the admission queue is full, instead of backpressuring (needs -admit)")
		leasePath = flag.String("lease", "", "coordinator lease file on shared storage; enables fail-stop fencing and standby failover (coordinator role)")
		leaseHold = flag.String("lease-holder", "", "name this coordinator writes into the lease (default coord-<pid>)")
		leaseTTL  = flag.Duration("lease-ttl", 10*time.Second, "lease renewal validity; a standby takes over this long after the last renewal")
		coordCkpt = flag.String("coord-checkpoint", "", "published self-checkpoint path a warm standby adopts at takeover (coordinator role)")
		partGrace = flag.Duration("partition-grace", 0, "keep a partitioned worker's shard detached (journaling, not re-placed) for this long before handing it off (0 = re-place immediately)")
		standby   = flag.Bool("standby", false, "run the coordinator as a warm standby: wait for the active's lease to lapse, then adopt -coord-checkpoint")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file, flushed at clean shutdown (docs/OPERATIONS.md)")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file at clean shutdown")
		tracefile = flag.String("trace", "", "write a runtime execution trace to this file, flushed at clean shutdown")
	)
	flag.Parse()
	if *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start(prof.Options{CPUProfile: *cpuprof, MemProfile: *memprof, Trace: *tracefile})
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()
	script, err := os.ReadFile(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}
	switch *role {
	case "server":
	case "worker":
		runWorker(*addr, string(script), *bootID, *shards, *simTypes)
		return
	case "coordinator":
		if *clusterWs == "" {
			log.Fatal("-role coordinator needs -cluster-workers")
		}
		if *standby && (*leasePath == "" || *coordCkpt == "") {
			log.Fatal("-standby needs -lease and -coord-checkpoint")
		}
		runCoordinator(string(script), *clusterWs, *input, *shards, *simTypes, coordOpts{
			leasePath: *leasePath, leaseHolder: *leaseHold, leaseTTL: *leaseTTL,
			checkpointPath: *coordCkpt, partitionGrace: *partGrace, standby: *standby,
		})
		return
	default:
		log.Fatalf("unknown -role %q (server, worker, or coordinator)", *role)
	}
	cfg := rcep.Config{Rules: string(script), Shards: *shards}
	if *simTypes {
		cfg.TypeOf = sim.NewRegistry().TypeOf
	}
	var seqState map[string]uint64
	if *snapshot != "" {
		raw, err := os.ReadFile(*snapshot)
		switch {
		case err == nil:
			var v2 snapshotV2
			if err := json.Unmarshal(raw, &v2); err != nil {
				log.Fatalf("snapshot %s is not an rcepd/v2 envelope: %v", *snapshot, err)
			}
			if v2.Format != "rcepd/v2" {
				// A bare engine checkpoint, written before the envelope, has no format.
				log.Fatalf("snapshot %s has format %q, not \"rcepd/v2\"; re-save it with the build that wrote it", *snapshot, v2.Format)
			}
			seqState = v2.Seq
			cfg.Checkpoint = bytes.NewReader(v2.Engine)
			log.Printf("restoring rcepd/v2 checkpoint from %s (%d reliable client(s))", *snapshot, len(v2.Seq))
		case !os.IsNotExist(err):
			log.Fatal(err)
		}
	}
	cfg.OnDetection = func(d rcep.Detection) {
		log.Printf("FIRE %s [%v..%v] %v", d.RuleID, d.Begin, d.End, d.Bindings())
	}
	var opts []wire.Option
	if *reorder > 0 {
		opts = append(opts, wire.WithReorder(*reorder))
	}
	if *keepalive > 0 {
		opts = append(opts, wire.WithKeepalive(*keepalive))
	}
	if *admit > 0 {
		opts = append(opts, wire.WithAdmission(*admit, *admitShed))
	}
	srv, err := wire.NewServer(cfg, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if len(seqState) > 0 {
		srv.RestoreSeqState(seqState)
	}
	// Unknown procedures log instead of erroring.
	for _, name := range []string{"send_alarm", "send_duplicate_msg", "mark_duplicate"} {
		n := name
		srv.Engine().RegisterProcedure(n, func(ctx rcep.ProcContext, args []any) error {
			log.Printf("CALL %s%v (rule %s)", n, args, ctx.RuleID)
			return nil
		})
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("rcepd listening on %s with %s (%d detection shard(s))", l.Addr(), *rulesPath, srv.Engine().Shards())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("shutting down")
		l.Close()
	}()

	// Serve returns nil when the listener closes; a racing accept can
	// still surface net.ErrClosed, which is the clean-shutdown path, not
	// a fatal condition.
	if err := srv.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	// Drain before snapshotting: every handler finishes its in-flight
	// frame and flushes a final cumulative ack, so the saved engine state
	// and sequence state include everything the feeders were told is
	// safely applied.
	srv.Shutdown()
	if *admit > 0 {
		log.Printf("admission queue shed %d observation(s) lifetime (query live counts with a \"status\" frame)", srv.Shed())
	}
	if *snapshot != "" {
		if err := saveSnapshot(srv, *snapshot); err != nil {
			log.Printf("snapshot save failed: %v", err)
		} else {
			log.Printf("data store saved to %s", *snapshot)
		}
	}
	log.Printf("rcepd stopped")
}

func saveSnapshot(srv *wire.Server, path string) error {
	var eng bytes.Buffer
	if err := srv.Engine().SaveCheckpoint(&eng); err != nil {
		return err
	}
	env := snapshotV2{Format: "rcepd/v2", Seq: srv.SeqState(), Engine: eng.Bytes()}
	raw, err := json.Marshal(env)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}
