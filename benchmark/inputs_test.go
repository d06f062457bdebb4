package main

import (
	"bytes"
	"reflect"
	"testing"
)

// generated is everything a path or query workload hands the program.
type generated struct {
	in      *inputs
	fs      *frameSet
	queries []query
}

func generate(t *testing.T, seed int64) generated {
	t.Helper()
	in, err := genStream(seed, streamSpec{lines: 4, obs: 3000, families: pathFamilies})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := genFrames(seed, in.obs)
	if err != nil {
		t.Fatal(err)
	}
	return generated{in, fs, genQueries(seed, in.obs, len(in.obs)/2, chunkSize)}
}

// TestSeedDrivesInputs: the same seed gives byte-identical inputs, another
// seed gives different ones.
func TestSeedDrivesInputs(t *testing.T) {
	a, b, c := generate(t, 1), generate(t, 1), generate(t, 2)
	if !reflect.DeepEqual(a.in.obs, b.in.obs) || a.in.script != b.in.script {
		t.Errorf("same seed, different stream or rule script")
	}
	if !bytes.Equal(a.fs.data, b.fs.data) || !reflect.DeepEqual(a.fs.lastObs, b.fs.lastObs) {
		t.Errorf("same seed, different LLRP frames")
	}
	if !reflect.DeepEqual(a.queries, b.queries) {
		t.Errorf("same seed, different query list")
	}
	if reflect.DeepEqual(a.in.obs, c.in.obs) {
		t.Errorf("seeds 1 and 2 give the same stream")
	}
	if bytes.Equal(a.fs.data, c.fs.data) {
		t.Errorf("seeds 1 and 2 give the same LLRP frames")
	}
	if reflect.DeepEqual(a.queries, c.queries) {
		t.Errorf("seeds 1 and 2 give the same query list")
	}
}

// TestFramesCoverTheStream: the frame set is the stream, cut at reader
// changes, in order.
func TestFramesCoverTheStream(t *testing.T) {
	g := generate(t, 3)
	if len(g.fs.ends) != len(g.fs.lastObs) || g.fs.ends[len(g.fs.ends)-1] != len(g.fs.data) {
		t.Fatalf("frame index does not cover the data")
	}
	prev := -1
	for i, last := range g.fs.lastObs {
		if last <= prev {
			t.Fatalf("frame %d ends at observation %d, not after %d", i, last, prev)
		}
		for j := prev + 1; j <= last; j++ {
			if g.in.obs[j].Reader != g.in.obs[last].Reader {
				t.Fatalf("frame %d mixes readers", i)
			}
		}
		if last-prev > maxTagsPerReport {
			t.Fatalf("frame %d carries %d tags", i, last-prev)
		}
		prev = last
	}
	if prev != len(g.in.obs)-1 {
		t.Fatalf("frames end at observation %d of %d", prev, len(g.in.obs))
	}
}
