package shard

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Group-indexed dispatch applies reader predicates once per reader, when
// the reader's dispatch list is built, instead of once per probe. The
// differential below holds sharded and checkpointed runs to the bare
// engine on rules whose reader is constrained by exactly those predicates;
// detect's primitive-match reference checks the bare engine itself.

// dispatchGroups places readers in zero, one or several groups.
var dispatchGroups = map[string][]string{
	"dock_1": {"g_dock"},
	"dock_2": {"g_dock", "g_in"},
	"exit_1": {"g_exit"},
	"store":  {"g_store"},
	"multi":  {"g_dock", "g_exit", "g_store"},
	"late_1": {"g_dock"},
	"late_2": {"g_exit"},
	// "lonely" and "late_0" are in no group.
}

func dispatchGroupsOf(r string) []string { return dispatchGroups[r] }

// dispatchTypeOf types readers (type(r)) as well as objects (type(o)).
func dispatchTypeOf(s string) string {
	switch {
	case s == "exit_1" || s == "late_2":
		return "portal"
	case len(s) > 0 && s[len(s)-1] == '0':
		return "laptop"
	}
	return ""
}

func dispatchRules() []Rule {
	group := func(arg string, op event.CmpOp, g string) event.Pred {
		return event.Pred{Fn: "group", Arg: arg, Op: op, Val: g}
	}
	laptop := event.Pred{Fn: "type", Arg: "o", Op: event.CmpEq, Val: "laptop"}
	exprs := []event.Expr{
		vars("r", "o", "t", group("r", event.CmpEq, "g_dock")),
		vars("r", "o", "t", group("r", event.CmpNe, "g_dock")),
		vars("r", "o", "t", group("r", event.CmpLt, "g_e")),
		// a bare comparison on a variable reader
		vars("r", "o", "t", event.Pred{Arg: "r", Op: event.CmpEq, Val: "dock_1"}),
		// a literal reader plus a group predicate on it, passing and not
		lit("dock_2", "o", "t", group("", event.CmpEq, "g_in")),
		lit("dock_2", "o", "t", group("", event.CmpEq, "g_exit")),
		// group(r) on a literal reader binds nothing: a dead pattern
		lit("dock_1", "o", "t", group("r", event.CmpEq, "g_dock")),
		// type(r) beside an object predicate
		vars("r", "o", "t", event.Pred{Fn: "type", Arg: "r", Op: event.CmpEq, Val: "portal"}, laptop),
		// group-keyed compound events: pairing and negation
		&event.Within{
			X: &event.Seq{
				L: vars("r1", "o", "t1", group("r1", event.CmpEq, "g_dock")),
				R: vars("r2", "o", "t2", group("r2", event.CmpEq, "g_exit"), laptop),
			},
			Max: 10 * time.Second,
		},
		&event.Within{
			X: &event.Seq{
				L: &event.Not{X: vars("r", "o", "t1", group("r", event.CmpEq, "g_store"))},
				R: vars("r", "o", "t2", group("r", event.CmpEq, "g_store")),
			},
			Max: 4 * time.Second,
		},
		// a wild duplicate filter, probed by every reader
		&event.Within{
			X:   &event.Seq{L: vars("r", "o", "u1"), R: vars("r", "o", "u2")},
			Max: 2 * time.Second,
		},
	}
	out := make([]Rule, len(exprs))
	for i, x := range exprs {
		out[i] = Rule{ID: i + 1, Expr: x}
	}
	return out
}

// dispatchStream interns thousands of objects through the early readers
// before the late ones first appear; every object passes a dock reader
// and then an exit or store reader.
func dispatchStream() []event.Observation {
	var out []event.Observation
	at := 0.0
	add := func(r, o string) {
		at += 0.25
		out = append(out, event.Observation{Reader: r, Object: o, At: ts(at)})
	}
	early := []string{"dock_1", "dock_2", "exit_1", "store", "lonely", "dock_1"}
	for i := 0; i < 3000; i++ {
		o := fmt.Sprintf("o%d", i/2)
		add(early[i%len(early)], o)
		if i%7 == 0 {
			add(early[(i+2)%len(early)], o)
		}
	}
	late := []string{"late_1", "late_0", "multi", "late_2", "dock_2", "store", "multi", "exit_1"}
	for i := 0; i < 600; i++ {
		add(late[i%len(late)], fmt.Sprintf("o%d", 2900+i/3))
	}
	return out
}

// dispatchSig renders a detection byte-for-byte, Seq included.
func dispatchSig(rid int, inst *event.Instance) string {
	return fmt.Sprintf("%d|%d|%d|%s|%d", rid, inst.Begin, inst.End, inst.Binds.String(), inst.Seq)
}

// runDispatch replays the stream at a shard width (0: a bare
// detect.Engine), optionally through a checkpoint and restore at cut.
func runDispatch(t *testing.T, width int, intern *event.Interner, cut int) []string {
	t.Helper()
	rules, stream := dispatchRules(), dispatchStream()
	var got []string
	onDetect := func(rid int, inst *event.Instance) { got = append(got, dispatchSig(rid, inst)) }
	type engine interface {
		IngestBatch([]event.Observation) error
		SaveCheckpoint(w io.Writer) error
		RestoreCheckpoint(r io.Reader) error
		Close()
	}
	build := func() engine {
		if width == 0 {
			b := graph.NewBuilder()
			for _, r := range rules {
				if _, err := b.AddRule(r.ID, r.Expr); err != nil {
					t.Fatalf("AddRule(%d): %v", r.ID, err)
				}
			}
			eng, err := detect.New(detect.Config{Graph: b.Finalize(), Groups: dispatchGroupsOf, TypeOf: dispatchTypeOf,
				OnDetect: onDetect, Interner: intern})
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
		eng, err := New(Config{Rules: rules, Shards: width, Groups: dispatchGroupsOf, TypeOf: dispatchTypeOf,
			OnDetect: onDetect, Interner: intern, Batch: 5, SyncEvery: 64})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := build()
	if cut > 0 {
		if err := eng.IngestBatch(stream[:cut]); err != nil {
			t.Fatal(err)
		}
		var ck bytes.Buffer
		if err := eng.SaveCheckpoint(&ck); err != nil {
			t.Fatal(err)
		}
		eng = build()
		if err := eng.RestoreCheckpoint(&ck); err != nil {
			t.Fatal(err)
		}
		stream = stream[cut:]
	}
	for lo := 0; lo < len(stream); lo += 97 {
		if err := eng.IngestBatch(stream[lo:min(lo+97, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	return got
}

// TestReaderPredicateDispatchMatchesInterpreted holds group-indexed
// dispatch to the uninterrupted bare engine (width 0), the pattern
// TestOracleShardEquivalence uses: at widths 0, 1, 2 and 4 the engine
// delivers the bare engine's detection multiset (Seq aside: each shard
// numbers its own instances), and through a mid-stream checkpoint it
// delivers its width's uninterrupted stream byte for byte, Seq included.
// Every run after the reference shares one Interner, so later runs meet
// readers whose symbols an earlier run assigned after thousands of
// objects. The name dates from when the reference was the interpreted
// engine.
func TestReaderPredicateDispatchMatchesInterpreted(t *testing.T) {
	ref := runDispatch(t, 0, nil, 0)
	// Every rule but the dead 7 and the never-passing 6 fires.
	fired := map[string]bool{}
	for _, s := range ref {
		rid, _, _ := strings.Cut(s, "|")
		fired[rid] = true
	}
	if len(fired) != 9 || fired["6"] || fired["7"] {
		t.Fatalf("the bare engine fires rules %v, want all but 6 and 7", fired)
	}
	intern := event.NewInterner()
	for _, width := range []int{0, 1, 2, 4} {
		whole := runDispatch(t, width, intern, 0)
		if got, want := asMultiset(withoutSeq(whole)), asMultiset(withoutSeq(ref)); !reflect.DeepEqual(got, want) {
			t.Errorf("width %d: detection multiset differs from the bare engine's (%d vs %d)%s",
				width, len(got), len(want), firstDiff(got, want))
		}
		for _, cut := range []int{1700, 3200} {
			if got := runDispatch(t, width, intern, cut); !reflect.DeepEqual(got, whole) {
				t.Errorf("width %d, checkpoint at %d: detections differ from the uninterrupted run (%d vs %d)%s",
					width, cut, len(got), len(whole), firstDiff(got, whole))
			}
		}
	}
}

// withoutSeq drops dispatchSig's trailing Seq field.
func withoutSeq(sigs []string) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s[:strings.LastIndexByte(s, '|')]
	}
	return out
}

func firstDiff(got, want []string) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("; first at %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	return ""
}
