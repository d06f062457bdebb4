package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int // index of the enclosing span, -1 at the top
	Lane   int // goroutine lane, for the trace viewer
	Pass   int
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: begin and end cost one nil check.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	pass  int
	spans []span
	// tracedPasses is how many whole-workload passes were recorded before
	// the layer probes began; their span totals divide by it.
	tracedPasses int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when not tracing).
func (r *recorder) begin(name string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Lane: lane, Pass: r.pass})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// layerOf maps a span name ("detect.IngestBatch") to its layer ("detect").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total time.Duration // Σ (end − start)
	self  time.Duration // total minus the part covered by child spans
}

// selfTimes computes per-span self time — duration minus the durations of
// its direct children — and sums count, total and self by span name.
// Children run on the parent's goroutine inside the parent's interval, so
// they never overlap each other and never exceed the parent.
func selfTimes(spans []span) map[string]spanStats {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		st.count++
		st.total += time.Duration(s.End - s.Start)
		st.self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = st
	}
	return out
}

// byName is selfTimes over everything recorded so far.
func (r *recorder) byName() map[string]spanStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans)
}

// traceEvent is one Chrome trace-event ("X" = complete event); Perfetto
// and chrome://tracing open an array of them.
type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`  // microseconds
	Dur  float64   `json:"dur"` // microseconds
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Parent   int    `json:"parent"`
}

// write stores the spans as Chrome trace-event JSON under dir.
func (r *recorder) write(dir, workload string) (string, error) {
	r.mu.Lock()
	events := make([]traceEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = traceEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: traceArgs{Workload: workload, Pass: s.Pass, Parent: s.Parent},
		}
	}
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(events)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
