// Package reader models RFID readers and their read behavior: tag
// observations with configurable duplicate reads and missed reads (the
// data-quality issues paper §3.1's filtering rules exist for), reader
// groups (paper §2.1), and smart-shelf bulk read cycles (paper §3.1,
// Rule 2's 30-second shelf scan).
package reader

import (
	"fmt"
	"math/rand"
	"time"

	"rcep/internal/core/event"
)

// Reader is one deployed RFID reader.
type Reader struct {
	ID       string
	Groups   []string // groups the reader belongs to; defaults to {ID}
	Location string   // symbolic location, e.g. "warehouse-1"

	// DupProb is the probability that a read emits an extra duplicate
	// observation DupDelay later (tags lingering in the read field,
	// overlapping readers, twin tags — paper §3.1).
	DupProb  float64
	DupDelay time.Duration

	// MissProb is the probability that a read is missed entirely.
	MissProb float64
}

// Observe simulates reading one tag at time at. It returns zero
// observations (missed read), one, or two (duplicate).
func (r *Reader) Observe(rng *rand.Rand, object string, at event.Time) []event.Observation {
	if r.MissProb > 0 && rng.Float64() < r.MissProb {
		return nil
	}
	obs := []event.Observation{{Reader: r.ID, Object: object, At: at}}
	if r.DupProb > 0 && rng.Float64() < r.DupProb {
		d := r.DupDelay
		if d <= 0 {
			d = 200 * time.Millisecond
		}
		obs = append(obs, event.Observation{Reader: r.ID, Object: object, At: at.Add(d)})
	}
	return obs
}

// Shelf is a smart shelf: a reader that bulk-reads everything on it on a
// fixed cycle.
type Shelf struct {
	Reader   Reader
	Interval time.Duration // cycle period, e.g. 30s
}

// Cycles produces the bulk reads of contents for every cycle boundary in
// [from, to). Objects within one cycle are read in slice order with a
// small deterministic skew so timestamps stay strictly increasing per
// cycle.
func (s *Shelf) Cycles(rng *rand.Rand, contents []string, from, to event.Time) []event.Observation {
	if s.Interval <= 0 {
		return nil
	}
	var out []event.Observation
	for t := from; t.Before(to); t = t.Add(s.Interval) {
		for i, o := range contents {
			at := t.Add(time.Duration(i) * time.Millisecond)
			out = append(out, s.Reader.Observe(rng, o, at)...)
		}
	}
	return out
}

// Deployment is a set of readers addressable by ID, providing the
// group(r) function for the detection engine.
type Deployment struct {
	readers map[string]*Reader
}

// NewDeployment returns an empty deployment.
func NewDeployment() *Deployment {
	return &Deployment{readers: map[string]*Reader{}}
}

// Add registers a reader; it fails on duplicate IDs.
func (d *Deployment) Add(r *Reader) error {
	if r.ID == "" {
		return fmt.Errorf("reader: reader needs an ID")
	}
	if _, dup := d.readers[r.ID]; dup {
		return fmt.Errorf("reader: duplicate reader %s", r.ID)
	}
	d.readers[r.ID] = r
	return nil
}

// GroupsOf implements the group(r) function: a reader's configured groups,
// defaulting to the reader itself (paper §2.1).
func (d *Deployment) GroupsOf(id string) []string {
	if r, ok := d.readers[id]; ok && len(r.Groups) > 0 {
		return r.Groups
	}
	return []string{id}
}

// LocationOf returns the reader's symbolic location (the reader ID when
// unset), used by location-transformation rules.
func (d *Deployment) LocationOf(id string) string {
	if r, ok := d.readers[id]; ok && r.Location != "" {
		return r.Location
	}
	return id
}
