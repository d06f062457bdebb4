package detect

import (
	"math/rand"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// TestKeyedOccursMatchesScan is the property behind the keyed negation
// history: on random histories — join values of mixed kinds, IntValue(3)
// beside FloatValue(3) beside StringValue("3"), unbound join variables,
// out-of-order ends, caps, prunes — occurs answers every random query
// exactly as the linear window scan does, and the keyed lists partition
// the entries.
func TestKeyedOccursMatchesScan(t *testing.T) {
	values := []event.Value{
		event.StringValue("a"), event.StringValue("b"), event.StringValue("3"),
		event.StringValue("null"), event.IntValue(3), event.FloatValue(3),
		event.FloatValue(3.5), event.TimeValue(3), event.BoolValue(true),
	}
	const sec = event.Time(time.Second)
	randBinds := func(rng *rand.Rand, vars []string) event.Bindings {
		var b event.Bindings
		for _, v := range vars {
			if rng.Intn(6) > 0 { // sometimes unbound
				b = b.Set(v, values[rng.Intn(len(values))])
			}
		}
		return b
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vars := [][]string{{"o"}, {"o", "r"}}[rng.Intn(2)]
		var dropped uint64
		h := newHistory()
		h.keyed = newKeyIndex[endList](vars)
		h.dropped = &dropped
		if rng.Intn(3) == 0 {
			h.cap = 1 + rng.Intn(20)
		}
		now := event.Time(0)
		for step := 0; step < 300; step++ {
			switch r := rng.Intn(10); {
			case r < 5:
				now += event.Time(rng.Intn(3)) * sec
				end := now - event.Time(rng.Intn(4))*sec // sometimes ends in the past
				h.add(&event.Instance{Begin: end - sec, End: end, Binds: randBinds(rng, []string{"o", "r", "x"})})
			case r == 5:
				h.pruneBefore(now - event.Time(rng.Intn(20))*sec)
			default:
				a := now - event.Time(rng.Intn(30))*sec
				b := a + event.Time(rng.Intn(30))*sec
				filter := randBinds(rng, vars)
				if rng.Intn(8) == 0 {
					filter = filter.Set("x", values[rng.Intn(len(values))])
				}
				scan := false
				h.inWindow(a, b, filter, -1, func(*event.Instance) bool {
					scan = true
					return false
				})
				if got := h.occurs(a, b, filter); got != scan {
					t.Fatalf("seed %d step %d: occurs(%s, %s, %s) = %v, scan says %v", seed, step, a, b, filter, got, scan)
				}
			}
			keyed := h.loose.len()
			h.keyed.retain(func(l *endList) bool {
				keyed += l.len()
				return true
			})
			if keyed != h.len() {
				t.Fatalf("seed %d step %d: keyed lists hold %d entries, history %d", seed, step, keyed, h.len())
			}
		}
	}
}
