package llrp

import (
	"bytes"
	"testing"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/epc"
	"rcep/internal/rules"
	"rcep/internal/sim"
	"rcep/internal/store"
	"rcep/internal/stream"
)

// TestFullTower runs the complete middleware stack bottom-up: the supply
// chain scenario is encoded as binary LLRP frames per reader (as real
// readers would deliver it), decoded through per-reader adapters, merged
// into one ordered stream, and processed by the rule engine — the store
// must still match the simulator's ground truth.
func TestFullTower(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Lines = 1
	cfg.Badges = 0
	sc := sim.Generate(cfg)

	// Group the scenario per reader and encode as frame streams, one
	// "connection" per reader with batched reports.
	byReader := map[string][]event.Observation{}
	for _, o := range sc.Observations {
		byReader[o.Reader] = append(byReader[o.Reader], o)
	}
	wires := map[string]*bytes.Buffer{}
	for r, obs := range byReader {
		var buf bytes.Buffer
		var batch []TagReport
		flush := func(id uint32) {
			if len(batch) == 0 {
				return
			}
			frame, err := Encode(Message{Type: MsgROAccessReport, ID: id, Tags: batch})
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(frame)
			batch = nil
		}
		for i, o := range obs {
			bin, err := epc.ParseHex(o.Object)
			if err != nil {
				t.Fatalf("scenario object is not an EPC: %v", err)
			}
			batch = append(batch, TagReport{
				EPC: bin, Timestamp: time.Duration(o.At), Antenna: 1, PeakRSSI: -550,
			})
			if len(batch) == 4 {
				flush(uint32(i))
			}
		}
		flush(9999)
		// Interleave a keepalive like real readers do.
		ka, _ := Encode(Message{Type: MsgKeepalive, ID: 1})
		buf.Write(ka)
		wires[r] = &buf
	}

	// Decode every connection back into per-reader observation slices.
	perReader := map[string][]event.Observation{}
	for r, buf := range wires {
		a := &Adapter{ReaderID: r, Sink: func(o event.Observation) error {
			perReader[r] = append(perReader[r], o)
			return nil
		}}
		if err := drain(a, buf); err != nil {
			t.Fatalf("reader %s: %v", r, err)
		}
	}
	var streams [][]event.Observation
	for _, obs := range perReader {
		stream.Sort(obs)
		streams = append(streams, obs)
	}
	merged := stream.Merge(streams...)
	if len(merged) != len(sc.Observations) {
		t.Fatalf("observations through the wire: %d, want %d", len(merged), len(sc.Observations))
	}

	// The usual rule stack on top.
	rs, err := rules.ParseScript(sim.RuleScript(cfg.Lines, []string{"pack", "loc"}))
	if err != nil {
		t.Fatal(err)
	}
	st := store.OpenRFID()
	x := rules.NewExecutor(rs, st, nil, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		t.Fatal(err)
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   sc.ChainGroups(),
		TypeOf:   sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) { x.Dispatch(rid, inst) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range merged {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if errs := x.Errors(); len(errs) > 0 {
		t.Fatalf("executor errors: %v", errs)
	}

	for caseEPC, items := range sc.Truth.Containments {
		got := store.ContentsAt(st, caseEPC, event.MaxTime-1)
		if len(got) != len(items) {
			t.Errorf("containment of %s through the full tower: %v, want %v", caseEPC, got, items)
		}
	}
}
