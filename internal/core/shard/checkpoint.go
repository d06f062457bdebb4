package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

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
	}
	for s, wk := range e.workers {
		var buf bytes.Buffer
		if err := wk.eng.SaveCheckpoint(&buf); err != nil {
			return fmt.Errorf("shard: checkpoint shard %d: %w", s, err)
		}
		ck.Engines = append(ck.Engines, buf.Bytes())
		ids := make([]int, len(e.part.ByShard[s]))
		for i, r := range e.part.ByShard[s] {
			ids[i] = r.ID
		}
		ck.Rules = append(ck.Rules, ids)
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
	for s := range e.workers {
		want := e.part.ByShard[s]
		if len(ck.Rules[s]) != len(want) {
			return fmt.Errorf("shard: restore: shard %d holds %d rules, checkpoint %d (different partition?)", s, len(want), len(ck.Rules[s]))
		}
		for i, r := range want {
			if ck.Rules[s][i] != r.ID {
				return fmt.Errorf("shard: restore: shard %d rule %d is %d, checkpoint has %d (different partition?)", s, i, r.ID, ck.Rules[s][i])
			}
		}
	}
	// The workers have not been handed any envelopes yet, so their
	// engines are untouched; restoring here is safe and the pre-restore
	// writes become visible to the workers through the first channel
	// send.
	for s, wk := range e.workers {
		if err := wk.eng.RestoreCheckpoint(bytes.NewReader(ck.Engines[s])); err != nil {
			return fmt.Errorf("shard: restore shard %d: %w", s, err)
		}
	}
	// Re-inject the held-back fire-time group. Saved order preserves each
	// worker's arrival order, so renumbering 1..k keeps the (fire, rule,
	// seq) tie-break intact; worker counters resume past k so detections
	// produced after the restore sort after the restored ones.
	e.pending = e.pending[:0]
	for i, p := range ck.Pending {
		e.pending = append(e.pending, Detection{
			Fire: p.Fire,
			Rule: p.Rule,
			Seq:  uint64(i + 1),
			Inst: &event.Instance{Begin: p.Begin, End: p.End, Binds: p.Binds, Seq: p.Seq},
		})
	}
	for _, wk := range e.workers {
		wk.seq = uint64(len(ck.Pending))
	}
	e.now = ck.Now
	e.idx = ck.Idx
	e.ingested = ck.Ingested
	e.delivered = ck.Delivered
	return nil
}
