package pop

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/optimizer"
)

// TestStrategyRegistry pins the canonical strategy set: names, lookup, and
// the error for unknown names (the server maps it to a parse error, so it
// must list the valid spellings).
func TestStrategyRegistry(t *testing.T) {
	want := []string{"dp-pop", "greedy-pop", "greedy-only", "reopt-unguarded"}
	sts := Strategies()
	if len(sts) != len(want) {
		t.Fatalf("Strategies() returned %d entries, want %d", len(sts), len(want))
	}
	for i, st := range sts {
		if st.Name() != want[i] {
			t.Errorf("Strategies()[%d] = %q, want %q", i, st.Name(), want[i])
		}
		if st.Describe() == "" {
			t.Errorf("strategy %s has no description", st.Name())
		}
		got, err := StrategyByName(st.Name())
		if err != nil {
			t.Errorf("StrategyByName(%q): %v", st.Name(), err)
		} else if got.Name() != st.Name() {
			t.Errorf("StrategyByName(%q) resolved to %q", st.Name(), got.Name())
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Fatal("unknown strategy name should error")
	} else {
		for _, n := range want {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("unknown-name error should list %q: %v", n, err)
			}
		}
	}
}

// TestResolveRewritesOptions: each strategy's runtime rewrite must land in
// the resolved Options, and the plan-side hook must chain after any
// user-supplied Configure.
func TestResolveRewritesOptions(t *testing.T) {
	t.Run("greedy-only disables POP and orders greedily", func(t *testing.T) {
		opts := DefaultOptions()
		userRan := 0
		opts.Configure = func(o *optimizer.Optimizer) { userRan++ }
		opts.Planner = GreedyOnly
		opts = opts.Resolve()
		if opts.Enabled {
			t.Error("greedy-only should disable re-optimization")
		}
		o := optimizer.New(nil)
		opts.Configure(o)
		if o.JoinOrder != optimizer.JoinOrderGreedy {
			t.Error("greedy-only should set the greedy join order")
		}
		if userRan != 1 {
			t.Errorf("user Configure ran %d times, want 1", userRan)
		}
	})

	t.Run("reopt-unguarded degenerates the ranges", func(t *testing.T) {
		opts := DefaultOptions()
		opts.Planner = ReoptUnguarded
		opts = opts.Resolve()
		if !opts.Enabled {
			t.Error("reopt-unguarded should keep re-optimization on")
		}
		if opts.Policy.RequireBoundedRange {
			t.Error("reopt-unguarded should not require bounded ranges")
		}
		if opts.Policy.FixedThresholdFactor != 1 {
			t.Errorf("reopt-unguarded threshold factor = %v, want 1 ([est,est] checks)",
				opts.Policy.FixedThresholdFactor)
		}
	})

	t.Run("dp-pop is the identity", func(t *testing.T) {
		base := DefaultOptions()
		opts := base
		opts.Planner = DPPOP
		opts = opts.Resolve()
		if opts.Enabled != base.Enabled || opts.MaxReopts != base.MaxReopts ||
			!reflect.DeepEqual(opts.Policy, base.Policy) {
			t.Error("dp-pop must not rewrite the runtime options")
		}
	})

	t.Run("nil planner untouched", func(t *testing.T) {
		opts := DefaultOptions()
		if got := opts.Resolve(); !reflect.DeepEqual(got, opts) {
			t.Error("Resolve without a planner must be a no-op")
		}
	})
}

// planShape strips planner metadata that does not affect execution — the
// global statement counter in temp-MV names, CHECK ranges and validity
// bounds — leaving the operator tree and cardinalities that determine
// simulated work.
var planShapeRules = []*regexp.Regexp{
	regexp.MustCompile(`stmt\d+/`),
	regexp.MustCompile(` range=\[[^\]]*\]`),
	regexp.MustCompile(` validity\[\d+\]=\[[^\]]*\]`),
}

func planShape(explain string) string {
	for _, re := range planShapeRules {
		explain = re.ReplaceAllString(explain, "")
	}
	return explain
}

// TestCrossStrategyWorkIdentity is the bit-identity claim behind the
// shootout: strategies are planner policies, not execution semantics, so
// whenever two strategies settle on the same final plan shape, the final
// attempt's simulated work must be bit-identical — and every strategy must
// return the same rows regardless of plan.
func TestCrossStrategyWorkIdentity(t *testing.T) {
	cat := correlatedFixture(t)
	q := correlatedQuery(t, cat)

	type outcome struct {
		name    string
		explain string
		work    float64
	}
	var rowsWant []string
	byPlan := map[string][]outcome{}
	for _, st := range Strategies() {
		opts := DefaultOptions()
		opts.Planner = st
		res, err := NewRunner(cat, opts).Run(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		rows := canon(res.Rows)
		if rowsWant == nil {
			rowsWant = rows
		} else if !reflect.DeepEqual(rows, rowsWant) {
			t.Fatalf("%s returned different rows than the first strategy", st.Name())
		}
		last := res.Attempts[len(res.Attempts)-1]
		shape := planShape(last.Explain())
		byPlan[shape] = append(byPlan[shape], outcome{
			name:    st.Name(),
			explain: last.Explain(),
			work:    res.Work - last.WorkBefore,
		})
	}

	shared := 0
	for plan, outs := range byPlan {
		if len(outs) < 2 {
			continue
		}
		shared++
		for _, o := range outs[1:] {
			if o.work != outs[0].work {
				t.Errorf("same final plan, different final-attempt work: %s=%v %s=%v\nplan:\n%s",
					outs[0].name, outs[0].work, o.name, o.work, plan)
			}
		}
	}
	if shared == 0 {
		var got []string
		for plan, outs := range byPlan {
			names := make([]string, len(outs))
			for i, o := range outs {
				names[i] = o.name
			}
			got = append(got, strings.Join(names, ",")+":\n"+plan)
		}
		t.Fatalf("expected at least two strategies to converge on one final plan; got:\n%s",
			strings.Join(got, "\n"))
	}
}
