// A minimal EPCglobal ALE-style reporting layer: fixed-length event
// cycles over logical readers that produce CURRENT / ADDITIONS /
// DELETIONS tag reports. Commercial RFID middleware (the platforms
// surveyed in the paper's related work: Sun EPC Network, SAP Auto-ID, IBM
// WebSphere RFID) exposes exactly this interface; the paper's complex
// event engine consumes the same observation stream one level below it.

package main

import (
	"fmt"
	"sort"
	"time"

	"rcep/internal/core/event"
)

// ReportType selects what a report set contains.
type ReportType uint8

// Report contents, per the ALE specification's report set semantics.
const (
	// Current lists every object seen during the cycle.
	Current ReportType = iota
	// Additions lists objects seen this cycle but not the previous one.
	Additions
	// Deletions lists objects seen the previous cycle but not this one.
	Deletions
)

// String implements fmt.Stringer.
func (t ReportType) String() string {
	switch t {
	case Current:
		return "CURRENT"
	case Additions:
		return "ADDITIONS"
	case Deletions:
		return "DELETIONS"
	}
	return fmt.Sprintf("report(%d)", uint8(t))
}

// Spec is an ECSpec-style subscription: which readers to watch, how long
// each event cycle lasts, and which report sets to emit.
type Spec struct {
	Name    string
	Readers []string      // physical reader IDs forming the logical reader
	Period  time.Duration // event cycle length
	Reports []ReportType
	// Filter, when set, restricts reporting to matching objects (the
	// ALE filter pattern stage).
	Filter func(object string) bool
	// SuppressEmpty skips reports with no objects.
	SuppressEmpty bool
}

// Report is one emitted report set.
type Report struct {
	Spec    string
	Type    ReportType
	Cycle   int        // 0-based event cycle number
	Start   event.Time // cycle boundaries [Start, End)
	End     event.Time
	Objects []string // sorted
}

// Collector consumes a timestamp-ordered observation stream and emits
// reports at every event cycle boundary.
type Collector struct {
	spec    Spec
	emit    func(Report)
	readers map[string]bool

	started  bool
	cycle    int
	start    event.Time
	current  map[string]bool
	previous map[string]bool
}

// NewCollector validates the spec and builds a collector delivering to
// emit.
func NewCollector(spec Spec, emit func(Report)) (*Collector, error) {
	if spec.Period <= 0 {
		return nil, fmt.Errorf("ale: spec %s: period must be positive", spec.Name)
	}
	if len(spec.Readers) == 0 {
		return nil, fmt.Errorf("ale: spec %s: needs at least one reader", spec.Name)
	}
	if len(spec.Reports) == 0 {
		return nil, fmt.Errorf("ale: spec %s: needs at least one report type", spec.Name)
	}
	c := &Collector{
		spec:     spec,
		emit:     emit,
		readers:  map[string]bool{},
		current:  map[string]bool{},
		previous: map[string]bool{},
	}
	for _, r := range spec.Readers {
		c.readers[r] = true
	}
	return c, nil
}

// Push feeds one observation; cycle boundaries strictly before the
// observation's time close first. Observations must be in non-decreasing
// timestamp order.
func (c *Collector) Push(obs event.Observation) error {
	if !c.readers[obs.Reader] {
		return nil
	}
	if c.spec.Filter != nil && !c.spec.Filter(obs.Object) {
		return nil
	}
	if !c.started {
		c.started = true
		c.start = obs.At
	}
	if obs.At < c.start {
		return fmt.Errorf("ale: spec %s: observation at %s precedes cycle start %s",
			c.spec.Name, obs.At, c.start)
	}
	for obs.At >= c.start.Add(c.spec.Period) {
		c.closeCycle()
	}
	c.current[obs.Object] = true
	return nil
}

// AdvanceTo closes every cycle that ends at or before t; call it when the
// stream is idle so empty cycles still report deletions.
func (c *Collector) AdvanceTo(t event.Time) {
	if !c.started {
		return
	}
	for t >= c.start.Add(c.spec.Period) {
		c.closeCycle()
	}
}

// Flush closes the in-progress cycle and emits its reports.
func (c *Collector) Flush() {
	if !c.started {
		return
	}
	c.closeCycle()
}

func (c *Collector) closeCycle() {
	end := c.start.Add(c.spec.Period)
	for _, rt := range c.spec.Reports {
		var objs []string
		switch rt {
		case Current:
			objs = keys(c.current)
		case Additions:
			objs = diff(c.current, c.previous)
		case Deletions:
			objs = diff(c.previous, c.current)
		}
		if len(objs) == 0 && c.spec.SuppressEmpty {
			continue
		}
		c.emit(Report{
			Spec: c.spec.Name, Type: rt, Cycle: c.cycle,
			Start: c.start, End: end, Objects: objs,
		})
	}
	c.previous = c.current
	c.current = map[string]bool{}
	c.cycle++
	c.start = end
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// diff returns the sorted elements of a not in b.
func diff(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
