package pipeline

import (
	"context"
	"sync"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// TestRunShedsOldestUnderOverload: with a ShedPolicy, a sink running far
// slower than the source never blocks admission — the oldest queued
// observations are dropped, the survivors reach the sink in order, and
// shed + delivered accounts for every emission. The same holds, counted
// in observations, when the admission channel carries multi-observation
// batches (the runner Run adapts onto).
func TestRunShedsOldestUnderOverload(t *testing.T) {
	const n = 2000
	obs := mkObs(n)
	// Uneven batches of 1..7 observations covering the same stream.
	var batches [][]event.Observation
	for rest, k := obs, 1; len(rest) > 0; k = k%7 + 1 {
		m := min(k, len(rest))
		batches = append(batches, rest[:m])
		rest = rest[m:]
	}
	for _, tc := range []struct {
		name string
		run  func(*ShedPolicy, func(event.Observation) error) error
	}{
		{"batches of one", func(p *ShedPolicy, sink func(event.Observation) error) error {
			return Run(context.Background(), Config{Source: SliceSource(obs), Buffer: 8, Shed: p, Sink: sink})
		}},
		{"multi-observation batches", func(p *ShedPolicy, sink func(event.Observation) error) error {
			return runBatches(context.Background(), BatchedConfig{
				Source: BatchSliceSource(batches),
				Buffer: 8,
				Sink: func(b event.Batch) error {
					for _, o := range b {
						if err := sink(o); err != nil {
							return err
						}
					}
					return nil
				},
			}, p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var shedMu sync.Mutex
			var shed []event.Observation
			policy := &ShedPolicy{OnShed: func(o event.Observation) {
				shedMu.Lock()
				shed = append(shed, o)
				shedMu.Unlock()
			}}

			var got []event.Observation
			err := tc.run(policy, func(o event.Observation) error {
				time.Sleep(100 * time.Microsecond)
				got = append(got, o)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if policy.Shed() == 0 {
				t.Fatalf("2000 observations against a 10x-slower sink shed nothing")
			}
			if uint64(len(shed)) != policy.Shed() {
				t.Fatalf("OnShed saw %d drops, counter says %d", len(shed), policy.Shed())
			}
			if uint64(len(got))+policy.Shed() != n {
				t.Fatalf("delivered %d + shed %d != emitted %d", len(got), policy.Shed(), n)
			}
			// Survivors must be an ordered subsequence of the emitted stream:
			// shedding degrades coverage, never order.
			j := 0
			for _, o := range got {
				for j < n && obs[j] != o {
					j++
				}
				if j == n {
					t.Fatalf("sink received %v out of order or duplicated", o)
				}
				j++
			}
		})
	}
	// Backpressure mode untouched: without a policy the same overload
	// delivers everything.
	var all int
	if err := Run(context.Background(), Config{
		Source: SliceSource(obs[:200]),
		Buffer: 8,
		Sink: func(o event.Observation) error {
			time.Sleep(10 * time.Microsecond)
			all++
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if all != 200 {
		t.Fatalf("backpressure mode delivered %d of 200", all)
	}
}
