package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"rcep/internal/core/event"
)

// checkpointFormat guards against restoring a single-engine checkpoint
// into a sharded engine (and vice versa — detect's format has no
// "format" key, shard's has no "fingerprint").
const checkpointFormat = "shard/v1"

// checkpoint is the serialized runtime state: one detect checkpoint per
// shard plus the router's clock and counters. The partition itself is not
// serialized — it is recomputed from the same rules/shard count/groups
// configuration, and the per-shard rule lists (plus each detect
// checkpoint's graph fingerprint) verify the layouts line up.
type checkpoint struct {
	Format    string            `json:"format"`
	Shards    int               `json:"shards"`
	Now       event.Time        `json:"now"`
	Idx       uint64            `json:"idx"`
	Ingested  uint64            `json:"ingested"`
	Delivered uint64            `json:"delivered"`
	Rules     [][]int           `json:"rules"`
	Engines   []json.RawMessage `json:"engines"`
	Pending   []ckPending       `json:"pending,omitempty"`
}

// ckPending is one undelivered detection: the fire-time group at the
// checkpoint instant is held back from delivery (it may still grow until
// the clock strictly passes it) and must survive the restore, because the
// shard engines have already fired it and will not produce it again.
type ckPending struct {
	Fire  event.Time     `json:"fire"`
	Rule  int            `json:"rule"`
	Begin event.Time     `json:"begin"`
	End   event.Time     `json:"end"`
	Seq   uint64         `json:"seq"`
	Binds event.Bindings `json:"binds,omitempty"`
}

// SaveCheckpoint quiesces every shard, delivers all pending detections
// (they are not serialized — a checkpoint boundary is also a delivery
// barrier) and writes the combined runtime state as JSON. The engine
// keeps running afterwards; checkpoints may be taken mid-stream.
func (e *Engine) SaveCheckpoint(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		if err := e.barrierLocked(true); err != nil {
			return fmt.Errorf("shard: checkpoint: %w", err)
		}
	}
	ck := checkpoint{
		Format:    checkpointFormat,
		Shards:    len(e.workers),
		Now:       e.now,
		Idx:       e.idx,
		Ingested:  e.ingested,
		Delivered: e.delivered,
		Rules:     e.part.RuleIDs(),
	}
	for s, wk := range e.workers {
		var buf bytes.Buffer
		if err := wk.host.Save(&buf); err != nil {
			return fmt.Errorf("shard: checkpoint shard %d: %w", s, err)
		}
		ck.Engines = append(ck.Engines, buf.Bytes())
	}
	for _, d := range e.pending {
		ck.Pending = append(ck.Pending, ckPending{
			Fire:  d.Fire,
			Rule:  d.Rule,
			Begin: d.Inst.Begin,
			End:   d.Inst.End,
			Seq:   d.Inst.Seq,
			Binds: d.Inst.Binds,
		})
	}
	return json.NewEncoder(w).Encode(ck)
}

// RestoreCheckpoint loads runtime state into a freshly built engine with
// the same rules, shard count and groups function (the partition must be
// identical; per-shard rule lists and graph fingerprints are verified).
// The engine must not have ingested anything yet.
func (e *Engine) RestoreCheckpoint(r io.Reader) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.ingested != 0 || e.idx != 0 {
		return fmt.Errorf("shard: restore requires a fresh engine")
	}
	var ck checkpoint
	if err := json.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("shard: restore: %w", err)
	}
	if ck.Format != checkpointFormat {
		return fmt.Errorf("shard: restore: checkpoint format %q is not %q (single-engine checkpoint?)", ck.Format, checkpointFormat)
	}
	if ck.Shards != len(e.workers) {
		return fmt.Errorf("shard: restore: checkpoint has %d shards, engine has %d", ck.Shards, len(e.workers))
	}
	// A truncated file can decode cleanly with short arrays; validate
	// every per-shard list before indexing so corruption surfaces as an
	// error, never a panic.
	if len(ck.Rules) != len(e.workers) || len(ck.Engines) != len(e.workers) {
		return fmt.Errorf("shard: restore: truncated checkpoint: %d rule lists and %d engine states for %d shards",
			len(ck.Rules), len(ck.Engines), ck.Shards)
	}
	if err := e.part.CheckRuleIDs(ck.Rules); err != nil {
		return fmt.Errorf("shard: restore: %w", err)
	}
	// The workers have not been handed any envelopes yet, so their
	// engines are untouched; restoring here is safe and the pre-restore
	// writes become visible to the workers through the first channel
	// send. Re-inject the held-back fire-time group: saved order
	// preserves each worker's arrival order, so renumbering 1..k keeps the
	// (fire, rule, seq) tie-break intact, and each host numbers past k so
	// detections produced after the restore sort after the restored ones.
	for s, wk := range e.workers {
		if err := wk.host.Restore(ck.Engines[s], uint64(len(ck.Pending))); err != nil {
			return fmt.Errorf("shard: restore shard %d: %w", s, err)
		}
	}
	e.pending = e.pending[:0]
	for i, p := range ck.Pending {
		e.pending = append(e.pending, Detection{
			Fire: p.Fire,
			Rule: p.Rule,
			Seq:  uint64(i + 1),
			Inst: &event.Instance{Begin: p.Begin, End: p.End, Binds: p.Binds, Seq: p.Seq},
		})
	}
	e.now = ck.Now
	e.idx = ck.Idx
	e.ingested = ck.Ingested
	e.delivered = ck.Delivered
	return nil
}

// RuleIDs lists each shard's rule IDs in ByShard order: the layout a
// checkpoint records, so that a restore can tell it was cut from this
// partition.
func (p *Partition) RuleIDs() [][]int {
	ids := make([][]int, len(p.ByShard))
	for s, rules := range p.ByShard {
		ids[s] = make([]int, len(rules))
		for i, r := range rules {
			ids[s][i] = r.ID
		}
	}
	return ids
}

// CheckRuleIDs reports the first shard whose recorded rule IDs differ
// from RuleIDs. ids must hold one list per shard.
func (p *Partition) CheckRuleIDs(ids [][]int) error {
	for s, want := range p.RuleIDs() {
		if !slices.Equal(ids[s], want) {
			return fmt.Errorf("shard %d holds rules %v in checkpoint, %v in partition (different partition?)", s, ids[s], want)
		}
	}
	return nil
}
