package event

import (
	"testing"
	"time"
)

// TestGuardCompareAndArith pins the comparison and arithmetic helpers
// every guard evaluation bottoms out in. Guard trees over them are
// covered in internal/core/detect, which compiles them.
func TestGuardCompareAndArith(t *testing.T) {
	i, f := IntValue(10), FloatValue(2.5)
	s, w := StringValue("27.5"), StringValue("word")
	t1, t2 := TimeValue(Time(10*time.Second)), TimeValue(Time(25*time.Second))
	cases := []struct {
		name      string
		got, want bool
	}{
		{"i > 9", GuardCompare(GuardGt, i, IntValue(9)), true},
		{"payload coercion: s > 8", GuardCompare(GuardGt, s, IntValue(8)), true},
		{"s < 8", GuardCompare(GuardLt, s, IntValue(8)), false},
		{"f >= 2.5", GuardCompare(GuardGe, f, FloatValue(2.5)), true},
		{"f <= 2.5", GuardCompare(GuardLe, f, FloatValue(2.5)), true},
		{"f < 2.5", GuardCompare(GuardLt, f, FloatValue(2.5)), false},
		{"f != 2.5", GuardCompare(GuardNe, f, FloatValue(2.5)), false},
		{"t2 > t1 + 5", GuardCompare(GuardGt, t2, GuardArith(GuardAdd, t1, IntValue(5))), true},
		{"t2 > t1 + 20", GuardCompare(GuardGt, t2, GuardArith(GuardAdd, t1, IntValue(20))), false},
		{"w = 'word'", GuardCompare(GuardEq, w, StringValue("word")), true},
		{"incomparable: w > 1", GuardCompare(GuardGt, w, IntValue(1)), false},
		{"null: none > 0", GuardCompare(GuardGt, Null, IntValue(0)), false},
		{"division by zero: i / 0 > -1", GuardCompare(GuardGt, GuardArith(GuardDiv, i, IntValue(0)), IntValue(-1)), false},
		{"-i < 0", GuardCompare(GuardLt, GuardNegate(i), IntValue(0)), true},
		{"i * f = 25", GuardCompare(GuardEq, GuardArith(GuardMul, i, f), IntValue(25)), true},
		{"i - 10 is falsy", GuardTruthy(GuardArith(GuardSub, i, IntValue(10))), false},
		{"null is falsy", GuardTruthy(Null), false},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestAggAccMatchesFold pins the accumulator invariant compiled guards
// rely on: incremental Add over a run equals FoldAgg over the
// collected list binding, op by op.
func TestAggAccMatchesFold(t *testing.T) {
	runs := [][]Value{
		{},
		{IntValue(3)},
		{IntValue(3), IntValue(5), IntValue(1)},
		{IntValue(3), FloatValue(2.5)},
		{StringValue("27.5"), StringValue("4"), Null},
		{StringValue("word"), IntValue(1)}, // non-numeric under SUM/AVG
		{BoolValue(true), IntValue(2)},     // incomparable under MIN/MAX
		{TimeValue(Time(5 * time.Second)), TimeValue(Time(9 * time.Second))},
	}
	for ri, run := range runs {
		var acc AggAcc
		for _, v := range run {
			acc.Add(CoerceScalar(v))
		}
		list := ListValue(run)
		for _, op := range []AggOp{AggCount, AggSum, AggAvg, AggMin, AggMax} {
			av, aerr := acc.Result(op)
			fv, ferr := FoldAgg(op, list)
			if (aerr == nil) != (ferr == nil) {
				t.Fatalf("run %d %s: acc err %v, fold err %v", ri, op, aerr, ferr)
			}
			if aerr == nil && (av.Kind() != fv.Kind() || !av.Equal(fv)) {
				t.Fatalf("run %d %s: acc %v (%v), fold %v (%v)", ri, op, av, av.Kind(), fv, fv.Kind())
			}
		}
	}
}

func TestFoldAggScalarAndEmpty(t *testing.T) {
	if v, err := FoldAgg(AggCount, Null); err != nil || v.Int() != 0 {
		t.Fatalf("COUNT(null) = %v, %v", v, err)
	}
	if v, err := FoldAgg(AggSum, Null); err != nil || v.Kind() != KindInt || v.Int() != 0 {
		t.Fatalf("SUM(null) = %v, %v", v, err)
	}
	if v, err := FoldAgg(AggAvg, Null); err != nil || !v.IsNull() {
		t.Fatalf("AVG(null) = %v, %v", v, err)
	}
	if v, err := FoldAgg(AggMax, StringValue("27.5")); err != nil || v.Float() != 27.5 {
		t.Fatalf("MAX(scalar) = %v, %v", v, err)
	}
}

func TestGuardVarsAndAggVars(t *testing.T) {
	g := &GBin{Op: GuardAnd,
		L: &GBin{Op: GuardGt, L: &GAgg{AggMax, "v"}, R: &GVar{"lim"}},
		R: &GBin{Op: GuardGe, L: &GAgg{AggCount, "v"}, R: &GLit{IntValue(3)}},
	}
	if got := GuardVars(g); len(got) != 2 || got[0] != "lim" || got[1] != "v" {
		t.Fatalf("GuardVars = %v", got)
	}
	if got := GuardAggVars(g); len(got) != 1 || got[0] != "v" {
		t.Fatalf("GuardAggVars = %v", got)
	}
}

// TestAggOpNamed: aggregate names resolve in any ASCII case, exactly as
// lower-casing them did, and allocate nothing.
func TestAggOpNamed(t *testing.T) {
	for name, want := range map[string]AggOp{
		"count": AggCount, "COUNT": AggCount, "Sum": AggSum, "aVg": AggAvg, "MIN": AggMin, "max": AggMax,
	} {
		if op, ok := AggOpNamed(name); !ok || op != want {
			t.Errorf("AggOpNamed(%q) = %v, %v; want %v", name, op, ok, want)
		}
	}
	for _, name := range []string{"", "coun", "counts", "cOunt ", "ſum", "m1n", "upper", "MAX_"} {
		if op, ok := AggOpNamed(name); ok {
			t.Errorf("AggOpNamed(%q) = %v, want no aggregate", name, op)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { AggOpNamed("COUNT") }); allocs != 0 {
		t.Errorf("AggOpNamed allocates %.1f", allocs)
	}
}
