package optimizer

import (
	"math"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/stats"
	"repro/internal/types"
)

// estimatorFor builds q's estimator over fb, as a compile does.
func estimatorFor(t *testing.T, cat *catalog.Catalog, q *logical.Query, fb *stats.Feedback) *estimator {
	t.Helper()
	tabs := make([]*catalog.Table, len(q.Tables))
	for i, tr := range q.Tables {
		tab, err := cat.Table(tr.Table)
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	return newEstimator(q, tabs, fb)
}

// feedbackOn records card for each mask's signature in a fresh cache.
func feedbackOn(q *logical.Query, cards map[uint64]float64) *stats.Feedback {
	fb := stats.NewFeedback()
	for m, c := range cards {
		fb.Record(Signature(q, m), c)
	}
	return fb
}

// TestFeedbackScalesSupersets: an observed pair scales the estimate of every
// superset without feedback by exactly fb/naive, and leaves subsets that do
// not contain it at their independence estimates.
func TestFeedbackScalesSupersets(t *testing.T) {
	cat, q := chainQuery(t, 4)
	cold := estimatorFor(t, cat, q, nil)
	const pair = 0b0011
	observed := 100 * cold.SubsetCard(pair)
	e := estimatorFor(t, cat, q, feedbackOn(q, map[uint64]float64{pair: observed}))
	if !slices.Equal(e.fbMasks, []uint64{pair}) {
		t.Fatalf("feedback masks %b, want [%b]", e.fbMasks, pair)
	}
	if got := e.SubsetCard(pair); got != observed {
		t.Errorf("observed pair: card %v, want its feedback %v", got, observed)
	}
	for _, m := range []uint64{0b0111, 0b1011, 0b1111} {
		want := cold.SubsetCard(m) * observed / cold.SubsetCard(pair)
		if got := e.SubsetCard(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("superset %04b: card %v, want naive·fb/naive = %v", m, got, want)
		}
	}
	for _, m := range []uint64{0b0001, 0b0110, 0b1100, 0b1110} {
		if got, want := e.SubsetCard(m), cold.SubsetCard(m); got != want {
			t.Errorf("subset %04b without the pair: card %v, want naive %v", m, got, want)
		}
	}
}

// TestOwnFeedbackBeatsSubsetFeedback: a mask with its own observation takes
// it, whatever its subsets observed.
func TestOwnFeedbackBeatsSubsetFeedback(t *testing.T) {
	cat, q := chainQuery(t, 4)
	e := estimatorFor(t, cat, q, feedbackOn(q, map[uint64]float64{0b0011: 5000, 0b0111: 7}))
	if got := e.SubsetCard(0b0111); got != 7 {
		t.Errorf("card %v, want the mask's own feedback 7", got)
	}
}

// TestLargestObservedSubsetWins: the scaling subset is the observed proper
// subset with the most tables; among equally large ones, the lowest mask.
func TestLargestObservedSubsetWins(t *testing.T) {
	cat, q := chainQuery(t, 4)
	cold := estimatorFor(t, cat, q, nil)
	scaled := func(m, s uint64, fb float64) float64 {
		return cold.SubsetCard(m) * fb / cold.SubsetCard(s)
	}
	cards := map[uint64]float64{0b0011: 3000, 0b0110: 40, 0b0111: 900}
	e := estimatorFor(t, cat, q, feedbackOn(q, cards))
	if !slices.Equal(e.fbMasks, []uint64{0b0111, 0b0011, 0b0110}) {
		t.Fatalf("feedback masks %b, want largest first, then by mask", e.fbMasks)
	}
	if got, want := e.SubsetCard(0b1111), scaled(0b1111, 0b0111, 900); got != want {
		t.Errorf("largest subset: card %v, want %v (scaled by the 3-table observation)", got, want)
	}

	delete(cards, 0b0111)
	e = estimatorFor(t, cat, q, feedbackOn(q, cards))
	if got, want := e.SubsetCard(0b0111), scaled(0b0111, 0b0011, 3000); got != want {
		t.Errorf("tie: card %v, want %v (scaled by the lower mask 0011)", got, want)
	}
	if got, want := e.SubsetCard(0b1110), scaled(0b1110, 0b0110, 40); got != want {
		t.Errorf("one subset: card %v, want %v (scaled by 0110)", got, want)
	}
}

// TestFeedbackUnderOtherPredicatesIgnored: an observation of the same
// aliases under other predicates (another constant in t0's filter) names
// a different edge, so it reaches neither its own mask nor a superset.
func TestFeedbackUnderOtherPredicatesIgnored(t *testing.T) {
	cat, q := chainQuery(t, 3)
	b := logical.NewBuilder(cat)
	for _, a := range []string{"t0", "t1", "t2"} {
		b.AddTable("t", a)
	}
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("t0", "nxt"), R: b.Col("t1", "id")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("t1", "nxt"), R: b.Col("t2", "id")})
	b.Where(&expr.Cmp{Op: expr.EQ, L: b.Col("t0", "id"), R: &expr.Const{Val: types.NewInt(4)}})
	b.SelectCol("t2", "id")
	other, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if Signature(other, 0b011) == Signature(q, 0b011) {
		t.Fatal("the two queries render one signature for {t0,t1}")
	}
	cold := estimatorFor(t, cat, q, nil)
	e := estimatorFor(t, cat, q, feedbackOn(other, map[uint64]float64{0b011: 5000}))
	if len(e.fbMasks) != 0 {
		t.Errorf("feedback masks %b from another query's predicates, want none", e.fbMasks)
	}
	for _, m := range []uint64{0b011, 0b111} {
		if got, want := e.SubsetCard(m), cold.SubsetCard(m); got != want {
			t.Errorf("mask %03b: card %v, want naive %v", m, got, want)
		}
	}
}

// TestNoFeedbackMasksWithoutMultiTableFeedback: no cache, an empty cache
// and a cache of single-table observations derive no masks.
func TestNoFeedbackMasksWithoutMultiTableFeedback(t *testing.T) {
	cat, q := chainQuery(t, 3)
	for name, fb := range map[string]*stats.Feedback{
		"nil":    nil,
		"empty":  stats.NewFeedback(),
		"single": feedbackOn(q, map[uint64]float64{0b001: 50, 0b100: 2}),
	} {
		if e := estimatorFor(t, cat, q, fb); e.fbMasks != nil {
			t.Errorf("%s feedback: masks %b, want none", name, e.fbMasks)
		}
	}
}
