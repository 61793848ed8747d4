package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/stats"
)

// estimator derives cardinalities for the enumerator. It consults the
// cardinality-feedback cache before statistics, so actual cardinalities
// observed during a previous partial execution override the original
// (possibly wrong) estimates — POP's aspect 2 (paper §2).
type estimator struct {
	q    *logical.Query
	tabs []*catalog.Table
	fb   *stats.Feedback

	// Fast-path state. The DP enumerator asks for the same subset
	// cardinalities, signatures and predicate selectivities many times per
	// Optimize call, and each uncached answer walks expression trees or
	// builds strings. Everything below is derived purely from the fields
	// above, which are immutable for the estimator's lifetime, so memoizing
	// returns bit-identical values in identical call orders.
	lk        stats.Lookup       // interned lookup closure
	fbHas     bool               // fb had entries at construction; gates every feedback lookup
	joinPreds []predMask         // join predicates with cached table masks
	joinSel   []float64          // memoized joinPredSelectivity (NaN = unset)
	baseCard  []float64          // memoized filteredBaseCard (NaN = unset)
	subsets   map[uint64]float64 // memoized SubsetCard
	sigs      map[uint64]string  // memoized Signature
	parts     *sigParts          // Signature's pre-rendered parts, built on first use
	// fbMasks are the multi-table subsets with feedback recorded under this
	// query's predicates, largest first, ties by the lowest mask. Derived
	// only when fbHas.
	fbMasks []uint64
}

// predMask pairs a predicate with its precomputed table mask, saving the
// expression walk TablesUsed performs on every call.
type predMask struct {
	pred expr.Expr
	mask uint64
}

func newEstimator(q *logical.Query, tabs []*catalog.Table, fb *stats.Feedback) *estimator {
	e := &estimator{q: q, tabs: tabs, fb: fb}
	e.lk = func(pos int) *stats.ColumnStats { return e.statsLookup(pos) }
	e.fbHas = fb != nil && fb.Len() > 0
	for _, p := range q.JoinPredicates() {
		e.joinPreds = append(e.joinPreds, predMask{pred: p, mask: q.TablesUsed(p)})
	}
	e.joinSel = make([]float64, len(e.joinPreds))
	e.baseCard = make([]float64, len(tabs))
	for i := range e.joinSel {
		e.joinSel[i] = math.NaN()
	}
	for i := range e.baseCard {
		e.baseCard[i] = math.NaN()
	}
	e.subsets = make(map[uint64]float64)
	e.sigs = make(map[uint64]string)
	if e.fbHas {
		e.deriveFeedbackMasks()
	}
	return e
}

// deriveFeedbackMasks finds the subsets of ≥ 2 tables that the feedback
// cache holds an observation for. A signature's T{…} part lists the
// subset's aliases; an entry counts only if this query re-renders exactly
// that signature for the mask, so an observation recorded under other
// predicates (another binding, another query over the same tables) is not
// propagated.
func (e *estimator) deriveFeedbackMasks() {
	byAlias := make(map[string]int, len(e.q.Tables))
	for i, t := range e.q.Tables {
		byAlias[t.Alias] = i
	}
	for _, sig := range e.fb.Signatures() {
		// A malformed entry parses to a mask that does not re-render it.
		aliases, _, _ := strings.Cut(strings.TrimPrefix(sig, "T{"), "}")
		var mask uint64
		for _, a := range strings.Split(aliases, ",") {
			ti, ok := byAlias[a]
			if !ok {
				mask = 0
				break
			}
			mask |= 1 << uint(ti)
		}
		if popcount(mask) >= 2 && e.Signature(mask) == sig {
			e.fbMasks = append(e.fbMasks, mask)
		}
	}
	slices.SortFunc(e.fbMasks, func(a, b uint64) int {
		if d := popcount(b) - popcount(a); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
}

// statsLookup resolves a query-global column id to its column statistics.
func (e *estimator) statsLookup(g int) *stats.ColumnStats {
	ti := e.q.TableOf(g)
	if ti < 0 {
		return nil
	}
	return e.tabs[ti].Stats(e.q.OrdinalOf(g))
}

// lookup adapts statsLookup to the stats package's Lookup type.
func (e *estimator) lookup() stats.Lookup { return e.lk }

// Signature builds the canonical plan-edge signature for a table subset of
// the query: the sorted aliases of the tables joined plus the sorted
// canonical text of every predicate applied within the subset (all members'
// local predicates and all internal join predicates). Two structurally
// equivalent subplans share a signature regardless of operator choice or
// join order — the key property for cardinality feedback and MV matching.
func Signature(q *logical.Query, mask uint64) string {
	return newSigParts(q, mask).signature(mask)
}

// Signature is the estimator-local shorthand for Signature(q, mask),
// memoized per mask and rendered from parts built on first use.
func (e *estimator) Signature(mask uint64) string {
	if s, ok := e.sigs[mask]; ok {
		return s
	}
	if e.parts == nil {
		e.parts = newSigParts(e.q, 1<<uint(len(e.q.Tables))-1)
	}
	s := e.parts.signature(mask)
	e.sigs[mask] = s
	return s
}

// sigPart is one pre-rendered piece of a signature: a table's alias or a
// WHERE conjunct's canonical text, with the tables it needs.
type sigPart struct {
	text string
	mask uint64
}

// sigParts is the signature vocabulary of a query's tables in a set: their
// aliases and the WHERE conjuncts over them, each rendered once, each list
// sorted by text. Filtering a sorted list keeps it sorted, so the signature
// of any mask inside the set is the concatenation of the parts it covers,
// with no expression walk or sort per mask.
type sigParts struct {
	aliases, preds []sigPart
}

func newSigParts(q *logical.Query, set uint64) *sigParts {
	sp := &sigParts{
		aliases: make([]sigPart, 0, len(q.Tables)),
		preds:   make([]sigPart, 0, len(q.Where)),
	}
	for i, t := range q.Tables {
		if set&(1<<uint(i)) != 0 {
			sp.aliases = append(sp.aliases, sigPart{t.Alias, 1 << uint(i)})
		}
	}
	for _, p := range q.Where {
		used := q.TablesUsed(p)
		if used == 0 {
			used = 1 // a table-free conjunct is table 0's (LocalPredicates)
		}
		if used&set == used {
			sp.preds = append(sp.preds, sigPart{predSignature(q, p), used})
		}
	}
	byText := func(a, b sigPart) int { return strings.Compare(a.text, b.text) }
	slices.SortFunc(sp.aliases, byText)
	slices.SortFunc(sp.preds, byText)
	return sp
}

// signature concatenates the parts mask covers: the aliases of its tables
// and the conjuncts all of whose tables it holds. A first pass sizes the
// string, so rendering it is one allocation.
func (sp *sigParts) signature(mask uint64) string {
	n := len("T{}|P{}")
	for _, parts := range [2][]sigPart{sp.aliases, sp.preds} {
		for _, p := range parts {
			if p.mask&mask == p.mask {
				n += len(p.text) + 1
			}
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("T{")
	writeCovered(&b, sp.aliases, mask, ',')
	b.WriteString("}|P{")
	writeCovered(&b, sp.preds, mask, ';')
	b.WriteByte('}')
	return b.String()
}

// writeCovered writes the texts of the parts mask covers, sep between them.
func writeCovered(b *strings.Builder, parts []sigPart, mask uint64, sep byte) {
	first := true
	for _, p := range parts {
		if p.mask&mask == p.mask {
			if !first {
				b.WriteByte(sep)
			}
			b.WriteString(p.text)
			first = false
		}
	}
}

// predSignature renders a predicate with column refs spelled as
// alias.column, independent of global-id numbering.
func predSignature(q *logical.Query, p expr.Expr) string {
	named := expr.Remap(p, func(pos int) int { return pos })
	// Remap copies; rewrite names in the copy.
	expr.Walk(named, func(n expr.Expr) {
		if c, ok := n.(*expr.ColRef); ok {
			c.Name = q.ColumnName(c.Pos)
		}
	})
	return named.String()
}

// baseTableCard returns the unfiltered row count of table ti.
func (e *estimator) baseTableCard(ti int) float64 { return e.tabs[ti].RowCount() }

// filteredBaseCard estimates the cardinality of table ti after its local
// predicates, preferring feedback. Memoized per table.
func (e *estimator) filteredBaseCard(ti int) float64 {
	if !math.IsNaN(e.baseCard[ti]) {
		return e.baseCard[ti]
	}
	card := e.filteredBaseCardUncached(ti)
	e.baseCard[ti] = card
	return card
}

// feedbackCard returns the feedback cache's observed cardinality for the
// subset mask. Only an estimator whose cache held entries at construction
// looks: an empty cache has no hit, so a cold compile renders no signature
// here.
func (e *estimator) feedbackCard(mask uint64) (float64, bool) {
	if !e.fbHas {
		return 0, false
	}
	return e.fb.Get(e.Signature(mask))
}

func (e *estimator) filteredBaseCardUncached(ti int) float64 {
	if card, ok := e.feedbackCard(1 << uint(ti)); ok {
		return card
	}
	card := e.baseTableCard(ti)
	for _, p := range e.q.LocalPredicates(ti) {
		card *= stats.Selectivity(p, e.lookup())
	}
	if card < 0 {
		card = 0
	}
	return card
}

// joinPredSelectivity estimates one join predicate's selectivity.
func (e *estimator) joinPredSelectivity(p expr.Expr) float64 {
	if l, r, ok := expr.EquiJoinColumns(p); ok {
		return stats.JoinSelectivity(e.statsLookup(l), e.statsLookup(r))
	}
	return stats.Selectivity(p, e.lookup())
}

// joinSelectivity is join predicate i's selectivity, memoized.
func (e *estimator) joinSelectivity(i int) float64 {
	if math.IsNaN(e.joinSel[i]) {
		e.joinSel[i] = e.joinPredSelectivity(e.joinPreds[i].pred)
	}
	return e.joinSel[i]
}

// SubsetCard estimates the output cardinality of joining the table subset.
// Feedback for the exact subset wins; otherwise the independence estimate
// is scaled by what feedback taught about the subset's largest observed
// part (subsetCardUncached). Memoized per mask; selectivities of individual
// join predicates are memoized across masks.
func (e *estimator) SubsetCard(mask uint64) float64 {
	if card, ok := e.subsets[mask]; ok {
		return card
	}
	card := e.subsetCardUncached(mask)
	e.subsets[mask] = card
	return card
}

// subsetCardUncached is SubsetCard's rule, after LEO (Stillger et al.,
// VLDB 2001): with no feedback for mask itself, take the independence
// estimate naive(mask) and, if some subset S ⊂ mask of ≥ 2 tables has
// feedback, scale it by fb(S)/naive(S), choosing the S with the most tables
// (ties: the lowest mask). Single tables take their feedback through
// filteredBaseCard.
func (e *estimator) subsetCardUncached(mask uint64) float64 {
	if card, ok := e.feedbackCard(mask); ok {
		return card
	}
	card := e.naive(mask)
	for _, s := range e.fbMasks {
		if s&mask != s || s == mask {
			continue
		}
		if fb, ok := e.feedbackCard(s); ok {
			if n := e.naive(s); n > 0 {
				card *= fb / n
			}
		}
		break
	}
	return card
}

// naive is the independence estimate of joining the table subset: the
// filtered base cardinalities times every internal join predicate's
// selectivity.
func (e *estimator) naive(mask uint64) float64 {
	card := 1.0
	for i := range e.q.Tables {
		if mask&(1<<uint(i)) != 0 {
			card *= e.filteredBaseCard(i)
		}
	}
	for i, jp := range e.joinPreds {
		if jp.mask&mask == jp.mask {
			card *= e.joinSelectivity(i)
		}
	}
	if card < 0 {
		card = 0
	}
	return card
}

// groupCount estimates the number of groups for the given grouping keys out
// of `card` input rows: the product of the keys' distinct counts, capped by
// the input cardinality.
func (e *estimator) groupCount(groupBy []int, card float64) float64 {
	if len(groupBy) == 0 {
		return 1
	}
	groups := 1.0
	for _, g := range groupBy {
		if cs := e.statsLookup(g); cs != nil && cs.Distinct > 0 {
			groups *= cs.Distinct
		} else {
			groups *= 100
		}
	}
	if groups > card {
		groups = card
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// maskString renders a table bitmask for diagnostics.
func (e *estimator) maskString(mask uint64) string {
	var parts []string
	for i := range e.q.Tables {
		if mask&(1<<uint(i)) != 0 {
			parts = append(parts, e.q.Tables[i].Alias)
		}
	}
	return strings.Join(parts, "⋈")
}

// popcount returns the number of tables in the mask.
func popcount(mask uint64) int { return bits.OnesCount64(mask) }

// maskError formats a "no plan" diagnostic.
func maskError(e *estimator, mask uint64) error {
	return fmt.Errorf("optimizer: no plan found for subset %s", e.maskString(mask))
}
