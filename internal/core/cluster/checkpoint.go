package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
)

// checkpointFormat versions the coordinator's serialized state.
const checkpointFormat = "cluster/v2"

// checkpoint is the JSON form of a quiesced coordinator: per-shard
// worker engine checkpoints (with end-to-end checksums), the detection
// dedupe high-water marks, the virtual clock, and the held fire-time
// group — everything a restarted coordinator needs to resume with no
// loss and no double-fire.
type checkpoint struct {
	Format    string            `json:"format"`
	Shards    int               `json:"shards"`
	Gen       uint64            `json:"gen"`
	Now       event.Time        `json:"now"`
	Ingested  uint64            `json:"ingested"`
	Delivered uint64            `json:"delivered"`
	Rules     [][]int           `json:"rules"` // rule IDs per shard, for partition mismatch detection
	Engines   []json.RawMessage `json:"engines"`
	Sums      []uint32          `json:"sums"`
	DetSeq    []uint64          `json:"det_seq"`
	DetHigh   []uint64          `json:"det_high"`
	Pending   []ckPending       `json:"pending,omitempty"`

	// Journals carries each shard's journaled frames past what its
	// engine checkpoint covers, and Trimmed whether that suffix no longer
	// reaches stream start (false preserves the full-replay fallback).
	// At a quiesced SaveCheckpoint barrier the suffixes are empty, but a
	// checkpoint published while a shard is detached — its engine
	// checkpoint frozen at the partition's onset — needs them: a standby
	// adopting the checkpoint replays the suffix into the replacement
	// placement, so mid-partition failover loses nothing.
	Journals [][]record `json:"journals"`
	Trimmed  []bool     `json:"trimmed"`
}

type ckPending struct {
	Fire  event.Time     `json:"fire"`
	Rule  int            `json:"rule"`
	Dseq  uint64         `json:"dseq"`
	Begin event.Time     `json:"begin"`
	End   event.Time     `json:"end"`
	Seq   uint64         `json:"seq,omitempty"`
	Binds event.Bindings `json:"binds,omitempty"`
}

// SaveCheckpoint quiesces the cluster at a forced-checkpoint barrier and
// writes a cluster/v2 snapshot. Completed fire-time groups are delivered
// as a side effect; the group at the current instant is serialized so a
// restart cannot lose or split it.
func (c *Coordinator) SaveCheckpoint(w io.Writer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if err := c.barrierLocked(false, false, true); err != nil {
		return err
	}
	return c.writeCheckpointLocked(w)
}

// writeCheckpointLocked serializes the coordinator's current state. The
// caller has run whatever barrier semantics it wanted; detached shards
// simply contribute a longer journal suffix.
func (c *Coordinator) writeCheckpointLocked(w io.Writer) error {
	n := c.part.NumShards()
	ck := checkpoint{
		Format:    checkpointFormat,
		Shards:    n,
		Gen:       c.gen,
		Now:       c.now,
		Ingested:  c.ingested,
		Delivered: c.delivered,
		Rules:     c.part.RuleIDs(),
		Engines:   make([]json.RawMessage, n),
		Sums:      make([]uint32, n),
		DetSeq:    append([]uint64(nil), c.ckDetSeq...),
		DetHigh:   append([]uint64(nil), c.detHigh...),
		Journals:  make([][]record, n),
		Trimmed:   make([]bool, n),
	}
	for s := 0; s < n; s++ {
		ck.Engines[s] = c.lastCk[s]
		ck.Sums[s] = c.ckSum[s]
		start := c.ckStart[s]
		if len(c.lastCk[s]) == 0 {
			start = 0 // no engine checkpoint: the suffix is the whole journal
		}
		ck.Journals[s] = c.journal[s][start:]
		ck.Trimmed[s] = c.trimmed[s] || start > 0
	}
	for _, d := range c.pending {
		ck.Pending = append(ck.Pending, ckPending{
			Fire: d.Fire, Rule: d.Rule, Dseq: d.Seq,
			Begin: d.Inst.Begin, End: d.Inst.End, Seq: d.Inst.Seq, Binds: d.Inst.Binds,
		})
	}
	return json.NewEncoder(w).Encode(&ck)
}

// publishCheckpointLocked writes the self-checkpoint to CheckpointPath
// via atomic tmp+rename, so a standby tailing the file always reads a
// complete record — never a torn one.
func (c *Coordinator) publishCheckpointLocked() error {
	var buf bytes.Buffer
	if err := c.writeCheckpointLocked(&buf); err != nil {
		return fmt.Errorf("cluster: publish checkpoint: %w", err)
	}
	tmp := c.cfg.CheckpointPath + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("cluster: publish checkpoint: %w", err)
	}
	if err := os.Rename(tmp, c.cfg.CheckpointPath); err != nil {
		return fmt.Errorf("cluster: publish checkpoint: %w", err)
	}
	return nil
}

// restore loads a cluster/v2 checkpoint into a freshly constructed
// coordinator, before any links are placed. Truncated or corrupt state
// is rejected with a clear error — every per-shard array must be exactly
// shard-count long and every engine checkpoint must match its checksum —
// never a panic.
func (c *Coordinator) restore(r io.Reader) error {
	var ck checkpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("cluster: restore: corrupt checkpoint: %w", err)
	}
	if ck.Format != checkpointFormat {
		return fmt.Errorf("cluster: restore: unsupported checkpoint format %q (want %q)", ck.Format, checkpointFormat)
	}
	n := c.part.NumShards()
	if ck.Shards != n {
		return fmt.Errorf("cluster: restore: checkpoint has %d shards, partition has %d", ck.Shards, n)
	}
	if len(ck.Rules) != n || len(ck.Engines) != n || len(ck.Sums) != n ||
		len(ck.DetSeq) != n || len(ck.DetHigh) != n || len(ck.Journals) != n || len(ck.Trimmed) != n {
		return fmt.Errorf("cluster: restore: truncated checkpoint: %d/%d/%d/%d/%d/%d/%d per-shard entries for %d shards",
			len(ck.Rules), len(ck.Engines), len(ck.Sums), len(ck.DetSeq), len(ck.DetHigh), len(ck.Journals), len(ck.Trimmed), n)
	}
	if err := c.part.CheckRuleIDs(ck.Rules); err != nil {
		return fmt.Errorf("cluster: restore: %w", err)
	}
	for s := 0; s < n; s++ {
		if len(ck.Engines[s]) > 0 && crc32.ChecksumIEEE(ck.Engines[s]) != ck.Sums[s] {
			return fmt.Errorf("cluster: restore: shard %d engine checkpoint fails its checksum (corrupt)", s)
		}
	}
	// Bump the coordinator generation past the incarnation that wrote
	// the checkpoint. The generation is part of every link's wire
	// ClientID: without it a restarted coordinator would reuse its
	// predecessor's identities, and a worker that survived the restart
	// would mistake the fresh frames for stale replays — re-acking them
	// unapplied and answering barriers from its cached-reply window.
	// The random instance token in the ClientID already rules that out;
	// the bump keeps generations monotonic for operators reading logs
	// and checkpoints.
	c.gen = ck.Gen + 1
	c.now = ck.Now
	c.ingested = ck.Ingested
	c.delivered = ck.Delivered
	for s := 0; s < n; s++ {
		c.lastCk[s] = ck.Engines[s]
		c.ckSum[s] = ck.Sums[s]
		c.ckDetSeq[s] = ck.DetSeq[s]
		c.detHigh[s] = ck.DetHigh[s]
		// The suffix is non-empty when the checkpoint was published
		// while a shard was detached: the initial placement replays it
		// on top of the engine checkpoint.
		c.journal[s] = ck.Journals[s]
		c.trimmed[s] = ck.Trimmed[s]
	}
	for _, p := range ck.Pending {
		c.pending = append(c.pending, shard.Detection{
			Fire: p.Fire, Rule: p.Rule, Seq: p.Dseq,
			Inst: &event.Instance{Begin: p.Begin, End: p.End, Binds: p.Binds, Seq: p.Seq},
		})
	}
	return nil
}
