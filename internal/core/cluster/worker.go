// Package cluster composes the acked, replayable wire protocol with the
// sharded detection engine into a crash-tolerant distributed mode: a
// coordinator places shard partitions onto remote workers, routes
// observations with the reader-keyed fan-out, and merges detections back
// into the same deterministic (fire, rule, seq) order a single process
// would produce — invariant to worker count and crash timing.
//
// Worker side. A Worker hosts any number of shard feeds, one per
// coordinator link. Each feed is driven by the sequenced frame stream of
// one wire.ReliableClient (ClientID "coord.<inst>.g<gen>.s<shard>.e<epoch>",
// where inst is a random per-incarnation token and gen is the
// coordinator generation — bumped at every checkpoint restore — so a
// restarted coordinator never collides with frames and cached replies
// addressed to its predecessor's identities), so the
// worker inherits the wire layer's dedupe-by-sequence guarantee: after a
// reconnect, replayed frames are re-acked and skipped, and reply-bearing
// frames are re-answered — sync/drain from the detection outbox, ckpt
// from a cached-reply window — so a reply lost with the connection is
// never lost for good.
//
// The first frame on every accepted connection is a boot announcement
// ({"type":"boot","msg":<boot id>}). A coordinator that reconnects and
// sees a different boot ID knows the worker process restarted and lost
// the feed's engine state — replaying into it would silently drop every
// detection since the last checkpoint — so it re-places the shard
// instead. A restarted worker also refuses (error frame, no ack, close)
// any sequenced frame for a feed it does not host, as a second line of
// defense.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"sync"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/wire"
)

// WorkerConfig configures a cluster worker. Rules, Shards, Groups and
// TypeOf must match the coordinator's exactly: both sides run
// shard.NewPartition over them and the shard numbers in assign frames
// are indices into that shared partition.
type WorkerConfig struct {
	Rules  []shard.Rule
	Shards int
	Groups func(reader string) []string
	TypeOf func(object string) string

	detect.Limits

	// BootID names this worker incarnation. It must change across
	// process restarts (a PID + start-time string, a counter in tests):
	// the coordinator uses it to distinguish a restarted worker (engine
	// state gone, shard must be re-placed) from a transient network
	// failure (state intact, replay suffices).
	BootID string
}

// Worker hosts shard detection engines for a cluster coordinator.
type Worker struct {
	cfg  WorkerConfig
	part *shard.Partition

	mu    sync.Mutex
	feeds map[string]*feed
	conns map[net.Conn]bool
	// gen counts Stops; stopping is set while one runs. A connection
	// whose Accept began under an older gen, or that arrives while a Stop
	// runs, is closed without being served.
	gen      uint64
	stopping bool
	wg       sync.WaitGroup
}

// feed is the state of one coordinator link: one shard engine driven by
// one sequenced frame stream.
type feed struct {
	shard   int
	lastSeq uint64
	eng     *detect.Engine
	dseq    uint64
	obs     uint64
	out     *outbox
	drained bool

	// replies caches the last few checkpoint responses keyed by request
	// sequence. If the connection dies after the worker sent a ckptres
	// but before the coordinator received it, the replayed request is
	// stale (already applied) — the cached reply is the only copy.
	// Sync/drain replies need no cache: the outbox answers stale
	// replays with the full unconfirmed set, which the coordinator's
	// dseq dedupe reduces to exactly the lost reply's content.
	replies map[uint64]wire.Message
	order   []uint64
}

const replyCacheSize = 8

func (f *feed) cache(seq uint64, m wire.Message) {
	f.replies[seq] = m
	f.order = append(f.order, seq)
	for len(f.order) > replyCacheSize {
		delete(f.replies, f.order[0])
		f.order = f.order[1:]
	}
}

// NewWorker validates the configuration and computes the shared
// partition. Serve then accepts coordinator links.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if len(cfg.Rules) == 0 {
		return nil, errors.New("cluster: WorkerConfig.Rules is empty")
	}
	seen := map[int]bool{}
	for _, r := range cfg.Rules {
		if seen[r.ID] {
			return nil, fmt.Errorf("cluster: duplicate rule ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	if cfg.BootID == "" {
		return nil, errors.New("cluster: WorkerConfig.BootID is required")
	}
	return &Worker{
		cfg:   cfg,
		part:  shard.NewPartition(cfg.Rules, cfg.Shards, cfg.Groups),
		feeds: map[string]*feed{},
		conns: map[net.Conn]bool{},
	}, nil
}

// Serve accepts coordinator connections until the listener is closed.
// It registers each connection before its handler starts, so a Stop
// severs every connection it accepted first.
func (w *Worker) Serve(l net.Listener) error {
	for {
		w.mu.Lock()
		gen := w.gen
		w.mu.Unlock()
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		w.mu.Lock()
		if w.stopping || w.gen != gen {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		w.conns[conn] = true
		w.wg.Add(1)
		w.mu.Unlock()
		go w.handle(conn)
	}
}

// Stop abruptly severs every connection and waits for the handlers. It
// models a crash for the coordinator's purposes — no draining, no
// farewell — but the in-process feed state survives, so Stop+Serve on a
// new listener with the SAME Worker behaves like a network partition,
// while a NEW Worker (fresh BootID) behaves like a process restart.
func (w *Worker) Stop() {
	w.mu.Lock()
	w.gen++
	w.stopping = true
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	w.wg.Wait()
	w.mu.Lock()
	w.stopping = false
	w.mu.Unlock()
}

// handle serves one connection Serve registered.
func (w *Worker) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
		w.wg.Done()
	}()

	fw := wire.NewFrameWriter(conn)
	reply := func(m wire.Message) { _ = fw.Send(&m) }

	// Boot announcement first, before any request: the coordinator's
	// dialer reads it to detect restarts before replaying anything.
	reply(wire.Message{Type: "boot", Msg: w.cfg.BootID})

	fr := wire.NewFrameReader(conn)
	var m wire.Message
	for {
		if err := fr.Read(&m); err != nil {
			// An oversized batch is refused before its seq is claimed,
			// exactly as wire.Server does; anything else drops the link.
			var big *wire.BatchTooLargeError
			if !errors.As(err, &big) {
				return
			}
			reply(wire.Message{Type: "error", Seq: m.Seq, Msg: "cluster: " + big.Error()})
			continue
		}
		switch m.Type {
		case "hello":
			w.mu.Lock()
			var last uint64
			if f := w.feeds[m.ClientID]; f != nil {
				last = f.lastSeq
			}
			w.mu.Unlock()
			reply(wire.Message{Type: "ack", Seq: last})
		case "ping":
			reply(wire.Message{Type: "pong"})
		case "pong":
		case "bye":
			w.mu.Lock()
			var obs, dets uint64
			if f := w.feeds[m.ClientID]; f != nil {
				obs, dets = f.obs, f.dseq
			}
			w.mu.Unlock()
			reply(wire.Message{Type: "stats", Observations: obs, Detections: dets})
			return
		case "assign", "batch", "advance", "sync", "ckpt", "drain":
			if !w.sequenced(m, reply) {
				return
			}
		default:
			reply(wire.Message{Type: "error", Seq: m.Seq, Msg: fmt.Sprintf("cluster: unknown frame type %q", m.Type)})
			if m.ClientID != "" && m.Seq > 0 {
				return // refuse without claiming, like sequenced
			}
		}
	}
}

// sequenced applies one sequenced cluster frame. Returning false closes
// the connection — the refusal path for frames the worker cannot apply
// without silently corrupting the stream (failed assigns, frames for
// feeds this incarnation never hosted). Crucially those paths never ack,
// so the coordinator's ring keeps the frames and can replay them at the
// shard's next placement.
func (w *Worker) sequenced(m wire.Message, reply func(wire.Message)) bool {
	if m.ClientID == "" || m.Seq == 0 {
		reply(wire.Message{Type: "error", Seq: m.Seq, Msg: "cluster: sequenced frames require client_id and seq"})
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	f := w.feeds[m.ClientID]
	if f != nil && m.Seq <= f.lastSeq {
		// Stale replay after a reconnect: already applied. Reply-bearing
		// frames are re-answered — sync/drain fresh from the outbox (a
		// superset of the lost reply, which the coordinator's dseq
		// dedupe shrinks back), ckpt from the cached-reply window — then
		// re-acked.
		switch m.Type {
		case "sync", "drain":
			f.out.confirm(m.DetSeq)
			reply(wire.Message{Type: "dets", Shard: f.shard, Seq: m.Seq, CDets: f.out.pending()})
		default:
			if r, ok := f.replies[m.Seq]; ok {
				reply(r)
			}
		}
		reply(wire.Message{Type: "ack", Seq: f.lastSeq})
		return true
	}
	if m.Type == "assign" {
		if f != nil && f.eng != nil {
			reply(wire.Message{Type: "error", Shard: m.Shard, Seq: m.Seq, Msg: fmt.Sprintf("cluster: feed %s is already assigned", m.ClientID)})
			return false
		}
		// A fresh assign supersedes any older feed hosting the same
		// shard: the coordinator (or a standby that adopted its lease)
		// abandoned that placement when it re-placed the shard. Evicting
		// it fences the previous coordinator identity — its frames now
		// get the no-feed refusal below — and keeps the feed map from
		// growing one dead engine per epoch.
		for id, old := range w.feeds {
			if old.eng != nil && old.shard == m.Shard {
				delete(w.feeds, id)
			}
		}
		nf, err := w.newFeed(m)
		if err != nil {
			reply(wire.Message{Type: "error", Shard: m.Shard, Seq: m.Seq, Msg: err.Error()})
			return false
		}
		nf.lastSeq = m.Seq
		w.feeds[m.ClientID] = nf
		reply(wire.Message{Type: "ack", Seq: m.Seq})
		return true
	}
	if f == nil {
		// A restarted worker receiving replay for a feed it never hosted:
		// the engine state is gone, so applying the suffix would silently
		// lose everything before it. Refuse without acking.
		reply(wire.Message{Type: "error", Shard: m.Shard, Seq: m.Seq, Msg: fmt.Sprintf("cluster: no feed %s on this worker (restarted?)", m.ClientID)})
		return false
	}
	f.lastSeq = m.Seq
	switch m.Type {
	case "batch":
		// One coordinator fan-out cycle in one frame: unpack into a
		// pooled batch and take the engine's batched fast path. The
		// engine does not retain the slice, so it goes straight back to
		// the pool.
		f.obs += uint64(len(m.Batch))
		b := wire.FrameBatch(m)
		err := f.eng.IngestBatch(b)
		event.PutBatch(b)
		if err != nil {
			reply(wire.Message{Type: "error", Shard: f.shard, Seq: m.Seq, Msg: err.Error()})
		}
	case "advance":
		if at := event.Time(m.AtNS); at >= f.eng.Now() {
			if err := f.eng.AdvanceTo(at); err != nil {
				reply(wire.Message{Type: "error", Shard: f.shard, Seq: m.Seq, Msg: err.Error()})
			}
		}
	case "sync":
		// The barrier catch-up is strict (AdvanceBefore): pseudo events
		// due exactly at the coordinator's clock must stay pending, since
		// an observation at that instant may still arrive. Mirrors the
		// in-process shard engine's opCatchUp.
		if at := event.Time(m.AtNS); at >= f.eng.Now() {
			if err := f.eng.AdvanceBefore(at); err != nil {
				reply(wire.Message{Type: "error", Shard: f.shard, Seq: m.Seq, Msg: err.Error()})
			}
		}
		f.out.confirm(m.DetSeq)
		reply(wire.Message{Type: "dets", Shard: f.shard, Seq: m.Seq, CDets: f.out.pending()})
	case "ckpt":
		var buf bytes.Buffer
		if err := f.eng.SaveCheckpoint(&buf); err != nil {
			reply(wire.Message{Type: "error", Shard: f.shard, Seq: m.Seq, Msg: err.Error()})
			break
		}
		// Trim to the compact form JSON re-encoding preserves byte-for-
		// byte, so the checksum survives every hop (wire, coordinator
		// memory, cluster/v2 checkpoint) unchanged.
		ck := bytes.TrimSpace(buf.Bytes())
		r := wire.Message{Type: "ckptres", Shard: f.shard, Seq: m.Seq,
			Ck: json.RawMessage(ck), Sum: crc32.ChecksumIEEE(ck), DetSeq: f.dseq}
		f.cache(m.Seq, r)
		reply(r)
	case "drain":
		if !f.drained {
			f.eng.Close()
			f.drained = true
		}
		f.out.confirm(m.DetSeq)
		reply(wire.Message{Type: "dets", Shard: f.shard, Seq: m.Seq, CDets: f.out.pending()})
	}
	reply(wire.Message{Type: "ack", Seq: f.lastSeq})
	return true
}

// newFeed builds the shard engine for an assign frame, restoring the
// carried checkpoint when present.
func (w *Worker) newFeed(m wire.Message) (*feed, error) {
	s := m.Shard
	if s < 0 || s >= w.part.NumShards() {
		return nil, fmt.Errorf("cluster: assign: shard %d out of range (partition has %d)", s, w.part.NumShards())
	}
	b := graph.NewBuilder()
	for _, r := range w.part.ByShard[s] {
		if _, err := b.AddRule(r.ID, r.Expr); err != nil {
			return nil, fmt.Errorf("cluster: assign shard %d: %w", s, err)
		}
	}
	f := &feed{shard: s, dseq: m.DetSeq, out: newOutbox(m.DetSeq), replies: map[uint64]wire.Message{}}
	eng, err := detect.New(detect.Config{
		Graph:  b.Finalize(),
		Groups: w.cfg.Groups,
		TypeOf: w.cfg.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			f.dseq++
			f.out.add(wire.ClusterDet{
				Rule: rid, Dseq: f.dseq, FireNS: int64(f.eng.Now()),
				BeginNS: int64(inst.Begin), EndNS: int64(inst.End),
				InstSeq: inst.Seq, Binds: inst.Binds,
			})
		},
		Limits: w.cfg.Limits,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: assign shard %d: %w", s, err)
	}
	f.eng = eng
	if len(m.Ck) > 0 {
		if m.Sum != 0 && crc32.ChecksumIEEE(m.Ck) != m.Sum {
			return nil, fmt.Errorf("cluster: assign shard %d: checkpoint checksum mismatch (corrupt handoff state)", s)
		}
		if err := restoreGuarded(eng, m.Ck); err != nil {
			return nil, fmt.Errorf("cluster: assign shard %d: %w", s, err)
		}
	}
	return f, nil
}

// restoreGuarded turns a panicking restore — truncated or corrupt bytes
// tripping an unchecked index deep in the engine — into an error, so a
// bad checkpoint degrades to the replay-from-journal fallback instead of
// taking the worker down.
func restoreGuarded(eng *detect.Engine, ck []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: corrupt checkpoint: restore panicked: %v", r)
		}
	}()
	if err := eng.RestoreCheckpoint(bytes.NewReader(ck)); err != nil {
		return fmt.Errorf("cluster: corrupt checkpoint: %w", err)
	}
	return nil
}
