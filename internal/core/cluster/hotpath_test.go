package cluster

import (
	"math/rand"
	"testing"

	"rcep/internal/faults"
)

// TestClusterCompiledMatchesInterpretedUnderHandoff runs the stream
// through a real TCP cluster while a mid-stream kill forces a checkpoint
// handoff and replay. The merged detections must be the bare engine's
// multiset, in the order an uninterrupted same-width shard engine
// delivers them: the event graph (and therefore the compiled plans) is
// rebuilt on the adopting worker, never serialized. The name dates from
// when the reference was a second cluster on the interpreted engine.
func TestClusterCompiledMatchesInterpretedUnderHandoff(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		seed := seed
		t.Run(planName(seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			rules := genRules(r, 3+r.Intn(8))
			stream := genStream(r, 60+r.Intn(60))
			third := len(stream) / 3
			plan := &faults.ClusterPlan{Seed: seed, Faults: []faults.ClusterFault{
				{AtObs: third, Kind: faults.FaultKill, Worker: 0},
				{AtObs: 2 * third, Kind: faults.FaultRestart, Worker: 0},
			}}

			oracle := asMultiset(runSingle(t, rules, stream))
			if len(oracle) == 0 {
				t.Fatal("stream produced no detections; equivalence is vacuous")
			}
			order := runShard(t, rules, stream, 4)
			got, handoffs, err := runCluster(t, seed, 3, rules, stream, plan)
			if err != nil {
				t.Fatalf("cluster run: %v", err)
			}
			if handoffs == 0 {
				t.Fatal("the kill forced no handoff")
			}
			diffStrings(t, "multiset", oracle, asMultiset(got))
			diffStrings(t, "order", order, got)
		})
	}
}
