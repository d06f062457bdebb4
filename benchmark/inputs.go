package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/epc"
	"rcep/internal/llrp"
	"rcep/internal/sim"
)

// Every input the program under test receives is built here from -seed:
// observation streams, LLRP frames and the query list. Rule scripts are a
// function of the stream shape alone (lines × families), so they do not
// change with the seed — the detections they produce do.

// streamSpec shapes one supply-chain stream (the Fig. 9 generator of
// internal/bench, restated so the benchmark owns its inputs).
type streamSpec struct {
	lines        int      // packing lines; rules = lines × len(families)
	obs          int      // stream is cut to exactly this many observations
	families     []string // rule families, see sim.RuleScript
	itemsPerCase int      // 0 keeps the simulator default (4)
	shelfCycles  int      // 0 keeps the simulator default (2)
}

// inputs is one generated workload input: the stream, its rule script and
// the deployment metadata the engines need.
type inputs struct {
	obs    []event.Observation
	script string
	groups func(string) []string
	typeOf func(string) string
	// horizon is where every run advances the virtual clock after the
	// last observation, so pending windows (negation, sequence closing)
	// complete identically in the reference and in every pass.
	horizon event.Time
}

// genStream generates a stream of exactly spec.obs observations.
func genStream(seed int64, spec streamSpec) (*inputs, error) {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	cfg.Lines = spec.lines
	cfg.DupProb = 0.05
	cfg.Badges = 2
	if spec.itemsPerCase > 0 {
		cfg.ItemsPerCase = spec.itemsPerCase
	}
	if spec.shelfCycles > 0 {
		cfg.ShelfCycles = spec.shelfCycles
	}
	// Observations one case contributes: conveyor items + case read +
	// three chain stages + shelf cycles + point-of-sale reads. The 10%
	// head-room covers duplicate draws; the stream is cut to size below.
	perCase := cfg.ItemsPerCase + 1 + 3 + cfg.ShelfCycles*cfg.ItemsPerCase +
		int(cfg.SellFraction*float64(cfg.ItemsPerCase))
	cfg.CasesPerLine = int(math.Ceil(1.1*float64(spec.obs)/float64(spec.lines*perCase))) + 1
	sc := sim.Generate(cfg)
	if len(sc.Observations) < spec.obs {
		return nil, fmt.Errorf("generator produced %d observations, need %d", len(sc.Observations), spec.obs)
	}
	obs := sc.Observations[:spec.obs]
	return &inputs{
		obs:     obs,
		script:  sim.RuleScript(spec.lines, spec.families),
		groups:  sc.ChainGroups(),
		typeOf:  sc.Registry.TypeOf,
		horizon: obs[len(obs)-1].At.Add(time.Minute),
	}, nil
}

// chunks cuts a stream into ingest calls of at most n observations.
func chunks(obs []event.Observation, n int) [][]event.Observation {
	var out [][]event.Observation
	for lo := 0; lo < len(obs); lo += n {
		hi := lo + n
		if hi > len(obs) {
			hi = len(obs)
		}
		out = append(out, obs[lo:hi])
	}
	return out
}

// maxTagsPerReport bounds one RO_ACCESS_REPORT.
const maxTagsPerReport = 256

// frameSet is a stream rendered as the byte stream LLRP readers would put
// on the socket: one RO_ACCESS_REPORT per maximal run of observations from
// the same reader. Message.ID carries the reader's index in readers (a
// real deployment has one connection per reader; one multiplexed stream
// keeps the benchmark at a single source goroutine).
type frameSet struct {
	readers []string
	data    []byte
	ends    []int // data[ends[i-1]:ends[i]] is frame i
	lastObs []int // index in the stream of frame i's last observation
	nobs    int
}

// genFrames renders the stream as LLRP frames. Antenna and RSSI values are
// drawn from the seed; they ride along undecoded by the rules.
func genFrames(seed int64, obs []event.Observation) (*frameSet, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6c6c7270)) // "llrp"
	fs := &frameSet{nobs: len(obs)}
	index := map[string]uint32{}
	for lo := 0; lo < len(obs); {
		hi := lo + 1
		for hi < len(obs) && hi-lo < maxTagsPerReport && obs[hi].Reader == obs[lo].Reader {
			hi++
		}
		id, ok := index[obs[lo].Reader]
		if !ok {
			id = uint32(len(fs.readers))
			index[obs[lo].Reader] = id
			fs.readers = append(fs.readers, obs[lo].Reader)
		}
		m := llrp.Message{Type: llrp.MsgROAccessReport, ID: id}
		for _, o := range obs[lo:hi] {
			bin, err := epc.ParseHex(o.Object)
			if err != nil {
				return nil, err
			}
			m.Tags = append(m.Tags, llrp.TagReport{
				EPC:       bin,
				Timestamp: time.Duration(o.At),
				Antenna:   uint16(1 + rng.Intn(4)),
				PeakRSSI:  int16(-300 - rng.Intn(400)),
			})
		}
		buf, err := llrp.Encode(m)
		if err != nil {
			return nil, err
		}
		fs.data = append(fs.data, buf...)
		fs.ends = append(fs.ends, len(fs.data))
		fs.lastObs = append(fs.lastObs, hi-1)
		lo = hi
	}
	return fs, nil
}

// tagsPerReport is the mean report size of the frame set.
func (fs *frameSet) tagsPerReport() float64 {
	return float64(fs.nobs) / float64(len(fs.ends))
}

// queryKind selects what one generated query exercises.
type queryKind uint8

const (
	qProbe  queryKind = iota // SELECT through the object_epc hash index
	qScan                    // SELECT on unindexed parent_epc: full scan
	qGroup                   // GROUP BY loc_id: full scan plus aggregation
	qTrace                   // Engine.Trace: location and containment histories
	qLocate                  // Engine.LocateAt: containment chain walk
)

// query is one generated read against the engine's store.
type query struct {
	kind   queryKind
	sql    string // qProbe, qScan, qGroup
	object string // qTrace, qLocate
	at     time.Duration
}

// queriesPerChunk is how many reads follow every ingest call of the
// query_mix workload: 3 probes, 2 scans, 1 group-by, 1 trace, 1 locate.
const queriesPerChunk = 8

// genQueries draws queriesPerChunk reads for each of n ingest calls.
// Objects and parents are sampled from the part of the stream already
// ingested when the query runs, so most probes hit.
func genQueries(seed int64, obs []event.Observation, preload, chunk int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x71756572)) // "quer"
	var out []query
	for lo := preload; lo < len(obs); lo += chunk {
		done := lo + chunk
		if done > len(obs) {
			done = len(obs)
		}
		for i := 0; i < queriesPerChunk; i++ {
			o := obs[rng.Intn(done)]
			switch {
			case i < 3:
				out = append(out, query{kind: qProbe, sql: fmt.Sprintf(
					"SELECT loc_id, tstart, tend FROM OBJECTLOCATION WHERE object_epc = '%s'", o.Object)})
			case i < 5:
				out = append(out, query{kind: qScan, sql: fmt.Sprintf(
					"SELECT object_epc FROM OBJECTCONTAINMENT WHERE parent_epc = '%s'", o.Object)})
			case i == 5:
				out = append(out, query{kind: qGroup,
					sql: "SELECT loc_id, COUNT(*) AS n FROM OBJECTLOCATION GROUP BY loc_id"})
			case i == 6:
				out = append(out, query{kind: qTrace, object: o.Object})
			default:
				out = append(out, query{kind: qLocate, object: o.Object, at: time.Duration(o.At)})
			}
		}
	}
	return out
}
