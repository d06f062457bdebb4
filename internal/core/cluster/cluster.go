package cluster

import (
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/shard"
	"rcep/internal/wire"
)

// ErrClosed is returned by ingestion calls after Close.
var ErrClosed = errors.New("cluster: coordinator is closed")

// errAssignFailed marks a worker's refusal to accept an assign frame —
// almost always a checkpoint it could not restore. The recovery is
// different from a crash: re-place WITHOUT the checkpoint and replay the
// full journal instead.
var errAssignFailed = errors.New("cluster: shard assignment rejected")

// Config configures a Coordinator. Rules, Shards, Groups and TypeOf must
// match every worker's WorkerConfig: both sides derive the same partition
// and exchange shard numbers as indices into it.
type Config struct {
	Rules   []shard.Rule
	Shards  int // max shards, as in shard.Config (0 = one per rule class)
	Workers []string

	Groups func(reader string) []string
	TypeOf func(object string) string

	// OnDetect receives the merged detections in deterministic
	// (fire, rule, seq) order — the same order the in-process sharded
	// engine and (for tie groups) the single engine deliver.
	OnDetect func(ruleID int, inst *event.Instance)

	// SyncEvery bounds how many observations are routed between delivery
	// barriers (default 64). Smaller = lower latency and less replay
	// after a crash; larger = less round-trip overhead.
	SyncEvery int

	// CheckpointEvery takes a worker checkpoint every N barriers
	// (default 4; negative disables automatic checkpoints). Checkpoints
	// bound the journal: the frames shipped since the last confirmed
	// checkpoint are the replay cost of a handoff.
	CheckpointEvery int

	// RetainJournal keeps the full frame journal instead of
	// truncating it at each confirmed checkpoint. It buys one extra
	// recovery: a checkpoint that later turns out corrupt can fall back
	// to a full replay. Memory grows with the stream.
	RetainJournal bool

	// Dial opens worker transports (default: 5s TCP dial). Fault
	// injection hooks in here.
	Dial func(addr string) (net.Conn, error)

	// BarrierTimeout bounds each worker's reply at a delivery barrier
	// (default 5s). A worker that misses it is presumed dead and its
	// shards are re-placed. A spurious timeout (slow worker, not dead)
	// is safe: the replacement replays from checkpoint + journal and the
	// merge path dedupes by detection sequence.
	BarrierTimeout time.Duration

	// Checkpoint, when set, restores a cluster/v2 coordinator checkpoint
	// (SaveCheckpoint) before placing shards: workers resume from the
	// embedded engine states and the held fire group is preserved.
	Checkpoint io.Reader

	// Seed makes reconnect jitter reproducible in tests.
	Seed int64

	// OnHandoff observes shard re-placements (diagnostics). Called with
	// the coordinator lock held — it must not call back into the
	// coordinator.
	OnHandoff func(shardID, fromWorker, toWorker int, cause error)

	// PartitionGrace, when > 0, switches the first barrier failure on an
	// established placement from immediate re-placement to detached
	// mode: the coordinator keeps journaling and feeding the link's
	// replay ring without blocking on it, holds back delivery of
	// fire-time groups the detached shard has not confirmed (the
	// frontier clamp), and probes for reattachment at later barriers.
	// Only after the grace expires — or the ring fills — is the shard
	// re-placed from checkpoint + journal. Zero keeps the eager
	// re-placement behavior.
	PartitionGrace time.Duration

	// OnDetach observes a shard entering detached mode (diagnostics).
	// Called with the coordinator lock held, like OnHandoff.
	OnDetach func(shardID, worker int, cause error)

	// LeasePath, when set, names a lease file this coordinator must hold
	// to operate: New acquires it (bumping the lease term, which fences
	// any previous holder), every barrier renews it, and a failed
	// renewal — another holder took the term — fail-stops the
	// coordinator with ErrLeaseLost before it can issue another barrier.
	// LeaseHolder names this process in the file; LeaseTTL is how long
	// each renewal is valid (default 10s).
	LeasePath   string
	LeaseHolder string
	LeaseTTL    time.Duration

	// CheckpointPath, when set, publishes a cluster/v2 self-checkpoint
	// (atomic tmp+rename) after every checkpoint-cadence barrier — the
	// state a warm standby adopts at takeover.
	CheckpointPath string
}

// record is one journaled frame, as the coordinator shipped it to a
// shard: a sealed batch of observations, or (nil Batch) a clock advance
// to AtNS. The records since the last confirmed checkpoint are exactly
// what a replacement worker must replay; the checkpoint carries them
// unchanged.
type record struct {
	AtNS  int64           `json:"at_ns,omitempty"`
	Batch []wire.BatchObs `json:"batch,omitempty"`
}

// msg renders the record as the frame it was shipped as.
func (r record) msg() wire.Message {
	if r.Batch == nil {
		return wire.Message{Type: "advance", AtNS: r.AtNS}
	}
	return wire.Message{Type: "batch", Batch: r.Batch}
}

// link is one shard's current placement: a reliable client to the
// hosting worker plus the mailbox its replies land in.
type link struct {
	shard, worker, epoch int
	client               *wire.ReliableClient
	box                  *mailbox
	assignSeq            uint64
	cap                  int  // ring capacity the client was dialed with
	synced               bool // at least one barrier completed on this placement
}

// mailbox collects worker replies off the link's read goroutine. It has
// its own lock — never the coordinator's — so reply dispatch can never
// deadlock against a coordinator blocked in SendFrame/Flush.
type mailbox struct {
	mu           sync.Mutex
	boot         string
	bootMismatch bool
	replies      map[uint64]wire.Message // keyed by echoed request seq
	errs         []wire.Message
	notify       chan struct{}
}

func (b *mailbox) ping() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// Coordinator places shard partitions onto remote workers, routes
// observations, and merges detections deterministically. All methods are
// safe for concurrent use; detection callbacks run on the caller's
// goroutine at delivery barriers, exactly like shard.Engine.
type Coordinator struct {
	cfg    Config
	part   *shard.Partition
	router *shard.Router

	mu        sync.Mutex
	links     []*link
	epoch     []int
	down      []bool
	journal   [][]record        // per-shard frames shipped, in order
	obsPend   [][]wire.BatchObs // per-shard observations routed but not yet sealed into a batch frame
	trimmed   []bool            // journal[s] no longer reaches stream start
	ckStart   []int             // journal index the last confirmed checkpoint covers up to
	lastCk    []json.RawMessage // last confirmed worker checkpoint per shard
	ckSum     []uint32
	ckDetSeq  []uint64
	detHigh   []uint64          // highest merged detection seq per shard (dedupe)
	pending   []shard.Detection // merged but undelivered; Seq is the shard's dseq
	now       event.Time
	sinceSync int
	sinceCkpt int
	ingested  uint64
	delivered uint64
	gen       uint64 // coordinator incarnation, bumped at each checkpoint restore
	inst      string // random per-incarnation token in every link's ClientID
	handoffs  int
	closed    bool
	err       error

	// Detached-shard (degraded) mode, active only with PartitionGrace.
	detached    []bool
	detachedAt  []time.Time
	detachCause []error
	forceRepl   []bool       // ring filled while detached: re-place at the next barrier
	probeAck    []uint64     // link ack high-water at the last failed probe
	frontier    []event.Time // per-shard clock through which detections are confirmed complete
	detaches    int

	lease *lease
}

// instanceID mints the random token that makes this coordinator
// incarnation's wire ClientIDs unique. Workers key feed state — and the
// reliable layer's dedupe-by-sequence high-water — by ClientID, so two
// incarnations must never share one: a cold-started coordinator reusing
// a live worker's previous identity would have every frame (assign,
// observations, barriers) silently re-acked as stale replay and
// dropped. The generation bump on checkpoint restore covers restarts
// that go through a checkpoint; the nonce covers the rest (cold starts
// against long-running workers, which all share gen 0).
func instanceID() string {
	var b [5]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// New validates the configuration, computes the partition, optionally
// restores a coordinator checkpoint, and places every shard. It fails if
// any initial placement cannot be established.
func New(cfg Config) (*Coordinator, error) {
	if err := shard.CheckRules(cfg.Rules); err != nil {
		return nil, fmt.Errorf("cluster: Config.Rules: %w", err)
	}
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: Config.Workers is empty")
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = 64
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 4
	}
	if cfg.BarrierTimeout <= 0 {
		cfg.BarrierTimeout = 5 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if cfg.OnDetect == nil {
		cfg.OnDetect = func(int, *event.Instance) {}
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	part := shard.NewPartition(cfg.Rules, cfg.Shards, cfg.Groups)
	n := part.NumShards()
	c := &Coordinator{
		cfg:         cfg,
		part:        part,
		router:      shard.NewRouter(part, cfg.Groups),
		links:       make([]*link, n),
		epoch:       make([]int, n),
		down:        make([]bool, len(cfg.Workers)),
		journal:     make([][]record, n),
		obsPend:     make([][]wire.BatchObs, n),
		trimmed:     make([]bool, n),
		ckStart:     make([]int, n),
		lastCk:      make([]json.RawMessage, n),
		ckSum:       make([]uint32, n),
		ckDetSeq:    make([]uint64, n),
		detHigh:     make([]uint64, n),
		detached:    make([]bool, n),
		detachedAt:  make([]time.Time, n),
		detachCause: make([]error, n),
		forceRepl:   make([]bool, n),
		probeAck:    make([]uint64, n),
		frontier:    make([]event.Time, n),
		inst:        instanceID(),
		now:         event.MinTime,
	}
	if cfg.Checkpoint != nil {
		if err := c.restore(cfg.Checkpoint); err != nil {
			return nil, err
		}
	}
	for s := range c.frontier {
		c.frontier[s] = c.now
	}
	if cfg.LeasePath != "" {
		// Acquiring bumps the lease term, which fences the previous
		// holder: its next renewal sees the foreign term and fail-stops.
		l, err := acquireLease(cfg.LeasePath, cfg.LeaseHolder, cfg.LeaseTTL)
		if err != nil {
			return nil, err
		}
		c.lease = l
	}
	placement := placeShards(part, len(cfg.Workers))
	for s := 0; s < n; s++ {
		if err := c.startLinkLocked(s, placement[s], len(c.lastCk[s]) > 0); err != nil {
			c.abortLocked()
			c.releaseLeaseLocked()
			return nil, err
		}
	}
	return c, nil
}

// placeShards balances shards across workers: heaviest shard (by rule
// count) to the least-loaded worker, deterministic tie-break by index —
// the same LPT idea the partitioner uses for rules-to-shards.
func placeShards(part *shard.Partition, workers int) []int {
	n := part.NumShards()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ { // insertion sort by descending weight, stable
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if len(part.ByShard[a]) >= len(part.ByShard[b]) {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	load := make([]int, workers)
	placement := make([]int, n)
	for _, s := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		placement[s] = best
		load[best] += len(part.ByShard[s])
	}
	return placement
}

// startLinkLocked establishes shard s on worker wkr under a fresh epoch:
// dial, assign (with the last confirmed checkpoint unless useCk is
// false), and replay the journal suffix the checkpoint does not cover.
func (c *Coordinator) startLinkLocked(s, wkr int, useCk bool) error {
	c.epoch[s]++
	box := &mailbox{replies: map[uint64]wire.Message{}, notify: make(chan struct{}, 1)}
	addr := c.cfg.Workers[wkr]
	bootDeadline := c.cfg.BarrierTimeout
	dial := func() (net.Conn, error) {
		conn, err := c.cfg.Dial(addr)
		if err != nil {
			return nil, err
		}
		boot, err := readBoot(conn, bootDeadline)
		if err != nil {
			conn.Close()
			return nil, err
		}
		box.mu.Lock()
		prev := box.boot
		if prev == "" {
			box.boot = boot
		} else if prev != boot {
			box.bootMismatch = true
		}
		box.mu.Unlock()
		if prev != "" && prev != boot {
			// The worker process restarted: its feed state is gone, so
			// replaying the unacked suffix into it would silently lose
			// everything before. Fail the dial; the barrier will notice
			// and re-place the shard from checkpoint + journal.
			box.ping()
			conn.Close()
			return nil, fmt.Errorf("cluster: worker %s restarted (boot %q, epoch established under %q)", addr, boot, prev)
		}
		return conn, nil
	}
	onFrame := func(m wire.Message) {
		box.mu.Lock()
		switch m.Type {
		case "dets", "ckptres":
			box.replies[m.Seq] = m
		case "error":
			box.errs = append(box.errs, m)
		}
		box.mu.Unlock()
		box.ping()
	}
	// Observations still pending for this shard are not journaled yet:
	// they are sealed onto the fresh link after the replay, in order.
	replay := c.journal[s]
	if useCk {
		replay = replay[c.ckStart[s]:]
	}
	// The ring must hold the assign, the whole replay, and a full
	// barrier window without blocking: SendFrame runs under c.mu, so a
	// ring that fills against a dead worker would deadlock the
	// coordinator before the barrier timeout could trigger a handoff.
	buffer := len(replay) + 2*c.cfg.SyncEvery + 64
	client, err := wire.DialReliable(addr, wire.ReliableOptions{
		ClientID:     fmt.Sprintf("coord.%s.g%d.s%d.e%d", c.inst, c.gen, s, c.epoch[s]),
		Dial:         dial,
		Buffer:       buffer,
		Backoff:      10 * time.Millisecond,
		MaxBackoff:   500 * time.Millisecond,
		Seed:         c.cfg.Seed + int64(s)*1009 + int64(c.epoch[s])*7919,
		DrainTimeout: c.cfg.BarrierTimeout,
		OnFrame:      onFrame,
	})
	if err != nil {
		return fmt.Errorf("cluster: shard %d on %s: %w", s, addr, err)
	}
	lk := &link{shard: s, worker: wkr, epoch: c.epoch[s], client: client, box: box, cap: buffer}
	assign := wire.Message{Type: "assign", Shard: s}
	if useCk {
		assign.Ck, assign.Sum, assign.DetSeq = c.lastCk[s], c.ckSum[s], c.ckDetSeq[s]
	}
	seq, err := client.SendFrame(assign)
	if err != nil {
		client.Abort()
		return fmt.Errorf("cluster: shard %d on %s: %w", s, addr, err)
	}
	lk.assignSeq = seq
	// Replay the frames as they were first shipped.
	for _, r := range replay {
		if _, err := client.SendFrame(r.msg()); err != nil {
			client.Abort()
			return fmt.Errorf("cluster: shard %d on %s: replay: %w", s, addr, err)
		}
	}
	c.down[wkr] = false
	c.links[s] = lk
	return nil
}

// readBoot consumes exactly the boot announcement line a worker writes
// first on every connection. Byte-at-a-time so nothing past the newline
// is consumed — the wire client's own reader takes over from there.
func readBoot(conn net.Conn, timeout time.Duration) (string, error) {
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	defer conn.SetReadDeadline(time.Time{})
	line := make([]byte, 0, 64)
	buf := []byte{0}
	for {
		if _, err := io.ReadFull(conn, buf); err != nil {
			return "", fmt.Errorf("cluster: reading boot announcement: %w", err)
		}
		if buf[0] == '\n' {
			break
		}
		line = append(line, buf[0])
		if len(line) > 4096 {
			return "", errors.New("cluster: boot announcement exceeds 4096 bytes")
		}
	}
	var m wire.Message
	if err := json.Unmarshal(line, &m); err != nil || m.Type != "boot" || m.Msg == "" {
		return "", fmt.Errorf("cluster: malformed boot announcement %q", line)
	}
	return m.Msg, nil
}

// Ingest feeds one observation, fanning it out to the shards whose leaf
// key spaces can match it. Observations must arrive in non-decreasing
// timestamp order, exactly as for detect.Engine.
func (c *Coordinator) Ingest(o event.Observation) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingestLocked(o)
}

func (c *Coordinator) ingestLocked(o event.Observation) error {
	if c.closed {
		if c.err != nil {
			return c.err
		}
		return ErrClosed
	}
	if c.err != nil {
		return c.err
	}
	if c.now != event.MinTime && o.At < c.now {
		return fmt.Errorf("%w: got %s, coordinator at %s", detect.ErrOutOfOrder, o.At, c.now)
	}
	c.now = o.At
	c.ingested++
	for _, s := range c.router.ShardsFor(o.Reader) {
		c.obsPend[s] = append(c.obsPend[s], wire.BatchObs{Reader: o.Reader, Object: o.Object, AtNS: int64(o.At)})
		if len(c.obsPend[s]) >= maxShipBatch {
			c.sealObsLocked(s)
		}
	}
	c.sinceSync++
	if c.sinceSync >= c.cfg.SyncEvery {
		return c.barrierLocked(false, false, false)
	}
	return nil
}

// maxShipBatch caps how many observations ride one coordinator→worker
// batch frame. The barrier cadence (SyncEvery) usually seals first;
// this bound keeps a single frame small enough that a slow
// link never stalls behind one giant write.
const maxShipBatch = 256

// sealObsLocked journals shard s's pending observations as one batch
// frame and ships it — the amortization that makes the coordinator's
// fan-out cost one link write per read cycle instead of one per
// observation. The journal keeps its own copy; SendFrame and TrySendFrame
// copy the batch into a recycled ring frame before they return, so the
// pending slice is reused for the next batch. Must run before any
// non-batch frame is sent on the shard's link: a sync or advance
// overtaking unsent observations would move the worker's clock past them
// and poison the feed with out-of-order errors.
func (c *Coordinator) sealObsLocked(s int) {
	pend := c.obsPend[s]
	if len(pend) == 0 {
		return
	}
	c.shipLocked(s, record{Batch: slices.Clone(pend)})
	c.obsPend[s] = pend[:0]
}

// shipLocked journals one frame for shard s and sends it on the shard's
// current link.
func (c *Coordinator) shipLocked(s int, r record) {
	c.journal[s] = append(c.journal[s], r)
	c.sendShardLocked(s, r.msg())
}

// sendShardLocked routes one journaled frame to a shard's current link.
// Attached links use the blocking send — their ring is sized for a full
// barrier window, so it cannot fill. A detached link must never stall
// the healthy shards behind a partitioned worker, so it gets the
// non-blocking send; when its ring finally fills, the partition has
// outlasted what the link can absorb, and nothing more may go down this
// link (a gap in the applied stream would silently corrupt the worker's
// detection state). The link is severed on the spot and the shard is
// re-placed from checkpoint + journal at the next barrier.
func (c *Coordinator) sendShardLocked(s int, m wire.Message) {
	lk := c.links[s]
	if !c.detached[s] {
		// A send failure here is not fatal: the journal has the entry,
		// and the barrier heals any gap by re-placing and replaying.
		_, _ = lk.client.SendFrame(m)
		return
	}
	if c.forceRepl[s] {
		return // ring gave out earlier; the link is already severed
	}
	if _, err := lk.client.TrySendFrame(m); errors.Is(err, wire.ErrRingFull) {
		c.forceRepl[s] = true
		lk.client.Abort()
	}
}

// AdvanceTo moves virtual time forward on every shard with no
// intervening observations, so negation windows can expire.
func (c *Coordinator) AdvanceTo(t event.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		if c.err != nil {
			return c.err
		}
		return ErrClosed
	}
	if c.err != nil {
		return c.err
	}
	if t < c.now {
		return fmt.Errorf("%w: AdvanceTo(%s), coordinator at %s", detect.ErrOutOfOrder, t, c.now)
	}
	c.now = t
	for s := range c.links {
		c.sealObsLocked(s) // pending observations precede the advance on this link
		c.shipLocked(s, record{AtNS: int64(t)})
	}
	c.sinceSync++
	if c.sinceSync >= c.cfg.SyncEvery {
		return c.barrierLocked(false, false, false)
	}
	return nil
}

// Sync forces a delivery barrier: every shard catches up to the
// coordinator's clock and every pending detection is delivered in merged
// order.
func (c *Coordinator) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	err := c.barrierLocked(false, true, false)
	return err
}

// Close completes every pending detection (each shard fires its
// remaining pseudo events), delivers the final merged batch, and tears
// down the worker links. Idempotent; returns the first failure, if any.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.barrierLocked(true, true, false)
	c.releaseLeaseLocked()
	c.abortLocked()
	return c.err
}

// releaseLeaseLocked expires the grant at once, so a standby need not
// wait out the TTL after a clean shutdown. Best effort: a lease already
// taken over stays the successor's.
func (c *Coordinator) releaseLeaseLocked() {
	if c.lease != nil {
		_ = c.lease.extend(time.Now())
		c.lease = nil
	}
}

// Abort tears the coordinator down without draining — the crash
// simulation for recovery tests. Worker links are severed; whatever was
// not delivered stays undelivered (and is recovered by a restart from
// the last SaveCheckpoint).
func (c *Coordinator) Abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.abortLocked()
}

func (c *Coordinator) abortLocked() {
	if c.closed {
		return
	}
	for _, lk := range c.links {
		if lk != nil {
			lk.client.Abort()
		}
	}
	c.closed = true
}

// barrierLocked runs one delivery barrier: every shard catches up to the
// coordinator's clock (strictly — pseudo events due exactly now stay
// pending), ships its buffered detections, and — on the checkpoint
// cadence — a fresh checkpoint. Failures trigger handoff and replay
// per shard. Completed fire-time groups are delivered; deliverAll also
// flushes the group at the current instant (Sync/Close semantics).
func (c *Coordinator) barrierLocked(drain, deliverAll, forceCkpt bool) error {
	c.sinceSync = 0
	if c.lease != nil {
		// Renew before touching any worker: a failed renewal means a
		// standby bumped the term and owns the cluster now. Fail-stop
		// here — issuing one more barrier as a zombie could race the
		// successor's assigns.
		if err := c.lease.extend(time.Now().Add(c.lease.ttl)); err != nil {
			if c.err == nil {
				c.err = err
			}
			c.abortLocked()
			return c.err
		}
	}
	ckpt := forceCkpt
	if !drain && !forceCkpt && c.cfg.CheckpointEvery > 0 {
		c.sinceCkpt++
		if c.sinceCkpt >= c.cfg.CheckpointEvery {
			ckpt = true
			c.sinceCkpt = 0
		}
	}
	for s := range c.links {
		if err := c.syncShardLocked(s, ckpt && !drain, drain); err != nil {
			if c.err == nil {
				c.err = err
			}
			return c.err
		}
	}
	c.deliverPendingLocked(deliverAll)
	if ckpt && !drain && c.cfg.CheckpointPath != "" && c.err == nil {
		if err := c.publishCheckpointLocked(); err != nil && c.err == nil {
			c.err = err
		}
	}
	return c.err
}

// syncShardLocked drives one shard through the barrier. An established
// placement that fails enters detached mode when PartitionGrace allows
// it; otherwise (and once the grace expires, the ring fills, or a drain
// demands completion) the shard is re-placed on failure until the
// barrier succeeds or placements are exhausted.
func (c *Coordinator) syncShardLocked(s int, ckpt, drain bool) error {
	// Seal first, even for a detached shard that skips the barrier: the
	// sync frame must not overtake unsent observations, and a checkpoint
	// written after this barrier must find them in the journal.
	c.sealObsLocked(s)
	if c.detached[s] {
		expired := time.Since(c.detachedAt[s]) >= c.cfg.PartitionGrace
		// A boot mismatch on reconnect means the worker process
		// restarted and the feed's engine state is gone — the one thing
		// detached mode was preserving. Re-place immediately.
		if !drain && !c.forceRepl[s] && !expired && !linkBootMismatch(c.links[s]) {
			return c.probeDetachedLocked(s, ckpt)
		}
		// Grace over (or the ring gave out, or a drain needs the shard
		// complete): give up on waiting the partition out.
		cause := c.detachCause[s]
		c.clearDetachLocked(s)
		if herr := c.handoffLocked(s, cause); herr != nil {
			return herr
		}
	}
	maxAttempts := 2*len(c.cfg.Workers) + 3
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		dets, err := c.barrierAttemptLocked(s, ckpt, drain)
		if err == nil {
			c.mergeDetsLocked(s, dets)
			c.links[s].synced = true
			c.frontier[s] = c.now
			return nil
		}
		lastErr = err
		if c.cfg.PartitionGrace > 0 && !drain && c.links[s].synced && !errors.Is(err, errAssignFailed) {
			// The incumbent placement completed barriers before — its
			// engine state is worth waiting for. Detach instead of
			// discarding it: the journal keeps growing, delivery clamps
			// to this shard's frontier, and a probe reattaches when the
			// partition heals.
			c.detachLocked(s, err)
			return nil
		}
		if herr := c.handoffLocked(s, err); herr != nil {
			return herr
		}
	}
	return fmt.Errorf("cluster: shard %d: giving up after %d placements: %w", s, maxAttempts, lastErr)
}

// probeDetachedLocked checks a detached shard for signs of life without
// paying a barrier timeout against a link that is still dead: a real
// barrier attempt is made only when the worker acked something since
// the last probe (or the ring drained completely) and the ring has
// headroom for the barrier frames, so the attempt cannot block under
// the coordinator lock. A failed attempt leaves the shard detached —
// the grace timer, not the probe, decides when to give up on the
// placement.
func (c *Coordinator) probeDetachedLocked(s int, ckpt bool) error {
	lk := c.links[s]
	acked := lk.client.Acked()
	alive := acked > c.probeAck[s] || lk.client.Unacked() == 0
	if !alive || lk.client.Unacked()+8 > lk.cap {
		return nil
	}
	dets, err := c.barrierAttemptLocked(s, ckpt, false)
	if err != nil {
		c.probeAck[s] = lk.client.Acked()
		return nil
	}
	c.clearDetachLocked(s)
	c.mergeDetsLocked(s, dets)
	lk.synced = true
	c.frontier[s] = c.now
	return nil
}

// linkBootMismatch reports whether the link's worker reconnected with a
// different boot ID — the process restarted, so the feed state detached
// mode was preserving no longer exists.
func linkBootMismatch(lk *link) bool {
	lk.box.mu.Lock()
	defer lk.box.mu.Unlock()
	return lk.box.bootMismatch
}

func (c *Coordinator) detachLocked(s int, cause error) {
	lk := c.links[s]
	c.detached[s] = true
	c.detachedAt[s] = time.Now()
	c.detachCause[s] = cause
	c.forceRepl[s] = false
	c.probeAck[s] = lk.client.Acked()
	c.detaches++
	if cb := c.cfg.OnDetach; cb != nil {
		cb(s, lk.worker, cause)
	}
}

func (c *Coordinator) clearDetachLocked(s int) {
	c.detached[s] = false
	c.detachCause[s] = nil
	c.forceRepl[s] = false
}

// barrierAttemptLocked sends sync (or drain) — plus ckpt when due — to
// the shard's current placement and waits for the replies.
func (c *Coordinator) barrierAttemptLocked(s int, ckpt, drain bool) ([]wire.ClusterDet, error) {
	lk := c.links[s]
	deadline := time.Now().Add(c.cfg.BarrierTimeout)
	typ := "sync"
	if drain {
		typ = "drain"
	}
	// DetSeq carries the coordinator's merged high-water mark: the
	// worker trims its detection outbox up to it and answers with
	// everything still unconfirmed beyond it.
	syncSeq, err := lk.client.SendFrame(wire.Message{Type: typ, AtNS: int64(c.now), DetSeq: c.detHigh[s]})
	if err != nil {
		return nil, err
	}
	var ckSeq uint64
	var ckPos int
	if ckpt {
		ckPos = len(c.journal[s])
		if ckSeq, err = lk.client.SendFrame(wire.Message{Type: "ckpt"}); err != nil {
			return nil, err
		}
	}
	if err := lk.client.Flush(time.Until(deadline)); err != nil {
		// A rejected assign shows up here first: the worker refuses to
		// ack (so the flush times out) and reports why in an error
		// frame. Classify before concluding the worker is dead — the
		// recovery for a bad checkpoint is a full replay, not a blind
		// re-placement that would carry the same bad checkpoint along.
		return nil, classifyLinkErr(lk, err)
	}
	sm, err := c.awaitReplyLocked(lk, syncSeq, deadline)
	if err != nil {
		return nil, err
	}
	c.sweepStrayDetsLocked(lk, syncSeq)
	if ckpt {
		cm, err := c.awaitReplyLocked(lk, ckSeq, deadline)
		if err != nil {
			// The sync dets are already merged (dedupe makes re-merge
			// after the handoff harmless); only the checkpoint is lost.
			c.mergeDetsLocked(s, sm.CDets)
			return nil, err
		}
		c.lastCk[s] = append(json.RawMessage(nil), cm.Ck...)
		c.ckSum[s] = cm.Sum
		c.ckDetSeq[s] = cm.DetSeq
		if c.cfg.RetainJournal {
			c.ckStart[s] = ckPos
		} else {
			c.journal[s] = append([]record(nil), c.journal[s][ckPos:]...)
			c.trimmed[s] = c.trimmed[s] || ckPos > 0
			c.ckStart[s] = 0
		}
	}
	return sm.CDets, nil
}

// sweepStrayDetsLocked merges and discards dets replies to earlier
// (stale, replayed) sync requests that accumulated in the mailbox while
// the link was flapping — a detached link can answer several old syncs
// in one reconnect replay. Each stray is a subset of the outbox-backed
// reply just received for the current sync, so merging them (ascending
// request seq, keeping dseq monotone for the dedupe) is pure hygiene:
// the mailbox stays bounded and no out-of-band reply is left behind.
func (c *Coordinator) sweepStrayDetsLocked(lk *link, before uint64) {
	lk.box.mu.Lock()
	var seqs []uint64
	for seq, r := range lk.box.replies {
		if seq < before && r.Type == "dets" {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	batches := make([][]wire.ClusterDet, 0, len(seqs))
	for _, seq := range seqs {
		batches = append(batches, lk.box.replies[seq].CDets)
		delete(lk.box.replies, seq)
	}
	lk.box.mu.Unlock()
	for _, b := range batches {
		c.mergeDetsLocked(lk.shard, b)
	}
}

// classifyLinkErr upgrades a generic link failure to errAssignFailed
// when the link's mailbox holds the worker's rejection of our assign.
func classifyLinkErr(lk *link, err error) error {
	lk.box.mu.Lock()
	defer lk.box.mu.Unlock()
	for _, e := range lk.box.errs {
		if e.Seq == lk.assignSeq {
			return fmt.Errorf("%w: %s", errAssignFailed, e.Msg)
		}
	}
	return err
}

// awaitReplyLocked waits for the reply echoing request seq on the link's
// mailbox, surfacing worker error frames and boot mismatches.
func (c *Coordinator) awaitReplyLocked(lk *link, seq uint64, deadline time.Time) (wire.Message, error) {
	box := lk.box
	for {
		box.mu.Lock()
		if m, ok := box.replies[seq]; ok {
			delete(box.replies, seq)
			box.mu.Unlock()
			return m, nil
		}
		for _, e := range box.errs {
			if e.Seq == lk.assignSeq {
				box.mu.Unlock()
				return wire.Message{}, fmt.Errorf("%w: %s", errAssignFailed, e.Msg)
			}
		}
		if len(box.errs) > 0 {
			e := box.errs[0]
			box.mu.Unlock()
			return wire.Message{}, fmt.Errorf("cluster: shard %d: worker %s: %s", lk.shard, c.cfg.Workers[lk.worker], e.Msg)
		}
		mismatch := box.bootMismatch
		box.mu.Unlock()
		if mismatch {
			return wire.Message{}, fmt.Errorf("cluster: shard %d: worker %s restarted mid-epoch", lk.shard, c.cfg.Workers[lk.worker])
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return wire.Message{}, fmt.Errorf("cluster: shard %d: no barrier reply from %s within %s (presumed dead)", lk.shard, c.cfg.Workers[lk.worker], c.cfg.BarrierTimeout)
		}
		timer := time.NewTimer(wait)
		select {
		case <-box.notify:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// handoffLocked abandons shard s's current placement and re-places it on
// the next live worker (round-robin; when every worker is marked down
// the marks reset — a restarted worker is indistinguishable from a dead
// one until dialed). An assign rejection falls back to a full journal
// replay without the checkpoint, when the journal still reaches back far
// enough.
func (c *Coordinator) handoffLocked(s int, cause error) error {
	c.clearDetachLocked(s)
	old := c.links[s]
	old.client.Abort()
	c.down[old.worker] = true
	c.handoffs++

	useCk := len(c.lastCk[s]) > 0
	if useCk && crc32.ChecksumIEEE(c.lastCk[s]) != c.ckSum[s] {
		// The stored checkpoint no longer matches the checksum the worker
		// computed over it — it rotted in coordinator memory. Catch it
		// here rather than shipping it: corrupt bytes may not even be
		// valid JSON, in which case the wire writer could never encode
		// the assign and the worker would never see it to reject it.
		cause = fmt.Errorf("%w: stored checkpoint for shard %d fails its checksum", errAssignFailed, s)
	}
	if errors.Is(cause, errAssignFailed) {
		if c.trimmed[s] {
			return fmt.Errorf("cluster: shard %d: checkpoint rejected and journal was truncated past it (enable RetainJournal for full-replay recovery): %w", s, cause)
		}
		// Drop the rejected checkpoint: the journal reaches back to the
		// beginning, so the replacement rebuilds from scratch.
		c.lastCk[s], c.ckSum[s], c.ckDetSeq[s] = nil, 0, 0
		c.ckStart[s] = 0
		useCk = false
		// The old worker was not at fault — the checkpoint was. Do not
		// hold the rejection against it.
		c.down[old.worker] = false
	}

	n := len(c.cfg.Workers)
	next := -1
	for i := 1; i <= n; i++ {
		w := (old.worker + i) % n
		if !c.down[w] {
			next = w
			break
		}
	}
	if next == -1 {
		for i := range c.down {
			c.down[i] = false
		}
		next = (old.worker + 1) % n
	}
	if cb := c.cfg.OnHandoff; cb != nil {
		cb(s, old.worker, next, cause)
	}
	return c.startLinkLocked(s, next, useCk)
}

// mergeDetsLocked merges one shard's barrier detections into the pending
// set, deduping by per-shard detection sequence: a replay after a crash
// or spurious handoff re-delivers detections the coordinator already
// merged, and they must not double-fire.
func (c *Coordinator) mergeDetsLocked(s int, dets []wire.ClusterDet) {
	for _, d := range dets {
		if d.Dseq <= c.detHigh[s] {
			continue
		}
		c.detHigh[s] = d.Dseq
		c.pending = append(c.pending, shard.Detection{
			Fire: event.Time(d.FireNS),
			Rule: d.Rule,
			Seq:  d.Dseq,
			Inst: &event.Instance{
				Begin: event.Time(d.BeginNS),
				End:   event.Time(d.EndNS),
				Binds: d.Binds,
				Seq:   d.InstSeq,
			},
		})
	}
}

// deliverPendingLocked delivers every completed fire-time group — those
// strictly before the delivery cut — through shard.Deliver, the merge
// order shard.Engine uses.
//
// The cut is normally the coordinator's clock, but a detached shard
// clamps it to its frontier — the clock through which that shard's
// detections are confirmed complete. A fire-time group past a detached
// frontier may still gain members when the shard reattaches and its
// backlog syncs, so delivering it early would break the deterministic
// merge order. Delivery latency degrades during a partition; order
// never does. Only a fully confirmed cluster, whose cut is the clock,
// flushes the group at the current instant when all is set (Sync/Close
// semantics).
func (c *Coordinator) deliverPendingLocked(all bool) {
	cut := c.now
	for s := range c.frontier {
		if c.frontier[s] < cut {
			cut = c.frontier[s]
		}
	}
	held := len(c.pending)
	c.pending = shard.Deliver(c.pending, cut, all && cut == c.now, c.cfg.OnDetect)
	c.delivered += uint64(held - len(c.pending))
}

// Shards returns the number of placed shard engines.
func (c *Coordinator) Shards() int { return c.part.NumShards() }

// Placement reports which worker currently hosts each shard.
func (c *Coordinator) Placement() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := make([]int, len(c.links))
	for s, lk := range c.links {
		p[s] = lk.worker
	}
	return p
}

// Handoffs reports how many shard re-placements have happened.
func (c *Coordinator) Handoffs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffs
}

// Detached reports how many shards are currently in detached mode.
func (c *Coordinator) Detached() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, d := range c.detached {
		if d {
			n++
		}
	}
	return n
}

// Detaches reports how many times any shard has entered detached mode.
func (c *Coordinator) Detaches() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.detaches
}

// Ingested reports how many observations the coordinator has accepted —
// including everything a restored checkpoint already covered. A stream
// replayed after failover resumes at this offset.
func (c *Coordinator) Ingested() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ingested
}

// Delivered reports how many detections OnDetect has received, counting
// those a restored checkpoint recorded as delivered by the previous
// incarnation — the ordinal base a failover driver dedupes re-delivered
// detections against.
func (c *Coordinator) Delivered() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}

// Now returns the coordinator's virtual clock.
func (c *Coordinator) Now() event.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Err returns the first unrecoverable failure, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}
