package cluster

import (
	"fmt"
	"os"
	"time"
)

// Standby is a warm coordinator replacement: it watches the active
// coordinator's lease and published self-checkpoint (Config.LeasePath
// and CheckpointPath) and, once the lease expires unrenewed, adopts the
// checkpoint — held fire group, detection dedupe marks, journal
// suffixes and all — under a fresh lease term. No gossip, no quorum:
// the lease file is the election, the checkpoint file is the state
// transfer, and the term bump plus worker-side feed eviction fence out
// the previous incarnation if it was merely paused rather than dead.
type Standby struct {
	cfg Config
}

// NewStandby prepares a standby from the same Config the active
// coordinator runs with (LeasePath and CheckpointPath must be set;
// Checkpoint is ignored — the published file supersedes it).
func NewStandby(cfg Config) (*Standby, error) {
	if cfg.LeasePath == "" {
		return nil, fmt.Errorf("cluster: standby requires Config.LeasePath")
	}
	if cfg.CheckpointPath == "" {
		return nil, fmt.Errorf("cluster: standby requires Config.CheckpointPath")
	}
	return &Standby{cfg: cfg}, nil
}

// TryTakeover attempts one takeover. While the active coordinator's
// lease is valid it returns (nil, nil) — poll it on whatever cadence
// the deployment's failover budget allows. Once the lease is expired
// (or was cleanly released), it restores the published checkpoint and
// constructs the successor Coordinator, whose New acquires the lease —
// bumping the term and fencing the predecessor. The caller resumes
// feeding the stream from the successor's Ingested() offset and dedupes
// re-delivered detections against its Delivered() ordinal base.
func (s *Standby) TryTakeover() (*Coordinator, error) {
	doc, held, err := readLeaseDoc(s.cfg.LeasePath)
	if err != nil {
		return nil, err
	}
	if held && doc.Holder != s.cfg.LeaseHolder && doc.ExpiresNS > time.Now().UnixNano() {
		return nil, nil // the active coordinator is still renewing
	}
	cfg := s.cfg
	cfg.Checkpoint = nil
	f, err := os.Open(cfg.CheckpointPath)
	if err == nil {
		defer f.Close()
		cfg.Checkpoint = f
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("cluster: standby: %w", err)
	}
	// No published checkpoint means the active died before its first
	// checkpoint barrier: take over cold from stream start.
	return New(cfg)
}
