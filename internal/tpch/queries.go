package tpch

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/logical"
	"repro/internal/types"
)

// Queries builds the TPC-H-derived query set used throughout the paper's
// evaluation (Figures 12-14): Q2, Q3, Q4, Q5, Q7, Q8, Q9, Q11, Q18 plus the
// literal form of Q10. The queries are adapted to the engine's SPJ+aggregate
// subset but keep the join structure, predicates and estimation hazards
// (date ranges, LIKE, column-to-column comparisons) of the originals.
func Queries(cat *catalog.Catalog) (map[string]*logical.Query, error) {
	out := map[string]*logical.Query{}
	type builder struct {
		name string
		fn   func(*catalog.Catalog) (*logical.Query, error)
	}
	for _, b := range []builder{
		{"Q2", Q2}, {"Q3", Q3}, {"Q4", Q4}, {"Q5", Q5}, {"Q7", Q7},
		{"Q8", Q8}, {"Q9", Q9}, {"Q10", func(c *catalog.Catalog) (*logical.Query, error) { return Q10Literal(c, 25) }},
		{"Q11", Q11}, {"Q18", Q18},
	} {
		q, err := b.fn(cat)
		if err != nil {
			return nil, fmt.Errorf("tpch: building %s: %w", b.name, err)
		}
		out[b.name] = q
	}
	return out, nil
}

func eq(l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: expr.EQ, L: l, R: r} }
func lt(l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: expr.LT, L: l, R: r} }
func le(l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: expr.LE, L: l, R: r} }
func gt(l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: expr.GT, L: l, R: r} }
func ge(l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: expr.GE, L: l, R: r} }
func str(s string) expr.Expr      { return &expr.Const{Val: types.NewString(s)} }
func num(f float64) expr.Expr     { return &expr.Const{Val: types.NewFloat(f)} }
func intc(i int64) expr.Expr      { return &expr.Const{Val: types.NewInt(i)} }
func date(y, m, d int) expr.Expr {
	return &expr.Const{Val: types.MakeDate(y, time.Month(m), d)}
}

// Q2 — minimum-cost supplier: part ⋈ partsupp ⋈ supplier ⋈ nation ⋈ region
// with a selective part size filter and a region restriction.
func Q2(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("part", "p")
	b.AddTable("partsupp", "ps")
	b.AddTable("supplier", "s")
	b.AddTable("nation", "n")
	b.AddTable("region", "r")
	b.Where(eq(b.Col("p", "p_partkey"), b.Col("ps", "ps_partkey")))
	b.Where(eq(b.Col("ps", "ps_suppkey"), b.Col("s", "s_suppkey")))
	b.Where(eq(b.Col("s", "s_nationkey"), b.Col("n", "n_nationkey")))
	b.Where(eq(b.Col("n", "n_regionkey"), b.Col("r", "r_regionkey")))
	b.Where(eq(b.Col("p", "p_size"), intc(15)))
	b.Where(eq(b.Col("r", "r_name"), str("EUROPE")))
	b.SelectCol("s", "s_acctbal")
	b.SelectCol("s", "s_name")
	b.SelectCol("n", "n_name")
	b.SelectCol("p", "p_partkey")
	b.OrderBy(b.Col("s", "s_acctbal"), true)
	b.Limit(100)
	return b.Build()
}

// Q3 — shipping priority: customer ⋈ orders ⋈ lineitem with segment and
// date-range predicates, revenue per order.
func Q3(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("customer", "c")
	b.AddTable("orders", "o")
	b.AddTable("lineitem", "l")
	b.Where(eq(b.Col("c", "c_custkey"), b.Col("o", "o_custkey")))
	b.Where(eq(b.Col("l", "l_orderkey"), b.Col("o", "o_orderkey")))
	b.Where(eq(b.Col("c", "c_mktsegment"), str("BUILDING")))
	b.Where(lt(b.Col("o", "o_orderdate"), date(1995, 3, 15)))
	b.Where(gt(b.Col("l", "l_shipdate"), date(1995, 3, 15)))
	rev := &expr.Arith{Op: expr.Mul, L: b.Col("l", "l_extendedprice"),
		R: &expr.Arith{Op: expr.Sub, L: num(1), R: b.Col("l", "l_discount")}}
	b.SelectCol("l", "l_orderkey")
	b.SelectAgg(logical.AggSum, rev, "revenue")
	b.GroupBy(b.Col("l", "l_orderkey"))
	b.OrderBy(b.Col("l", "l_orderkey"), false)
	return b.Build()
}

// Q4 — order priority checking: orders ⋈ lineitem with a column-to-column
// comparison (l_commitdate < l_receiptdate) the estimator can only default —
// one of the paper's estimation-error sources.
func Q4(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("orders", "o")
	b.AddTable("lineitem", "l")
	b.Where(eq(b.Col("l", "l_orderkey"), b.Col("o", "o_orderkey")))
	b.Where(ge(b.Col("o", "o_orderdate"), date(1993, 7, 1)))
	b.Where(lt(b.Col("o", "o_orderdate"), date(1993, 10, 1)))
	b.Where(lt(b.Col("l", "l_commitdate"), b.Col("l", "l_receiptdate")))
	b.SelectCol("o", "o_orderpriority")
	b.SelectAgg(logical.AggCount, nil, "order_count")
	b.GroupBy(b.Col("o", "o_orderpriority"))
	b.OrderBy(b.Col("o", "o_orderpriority"), false)
	return b.Build()
}

// Q5 — local supplier volume: six-way join with a region restriction and
// the customer-supplier co-location predicate.
func Q5(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("customer", "c")
	b.AddTable("orders", "o")
	b.AddTable("lineitem", "l")
	b.AddTable("supplier", "s")
	b.AddTable("nation", "n")
	b.AddTable("region", "r")
	b.Where(eq(b.Col("c", "c_custkey"), b.Col("o", "o_custkey")))
	b.Where(eq(b.Col("l", "l_orderkey"), b.Col("o", "o_orderkey")))
	b.Where(eq(b.Col("l", "l_suppkey"), b.Col("s", "s_suppkey")))
	b.Where(eq(b.Col("c", "c_nationkey"), b.Col("s", "s_nationkey")))
	b.Where(eq(b.Col("s", "s_nationkey"), b.Col("n", "n_nationkey")))
	b.Where(eq(b.Col("n", "n_regionkey"), b.Col("r", "r_regionkey")))
	b.Where(eq(b.Col("r", "r_name"), str("ASIA")))
	b.Where(ge(b.Col("o", "o_orderdate"), date(1994, 1, 1)))
	b.Where(lt(b.Col("o", "o_orderdate"), date(1995, 1, 1)))
	rev := &expr.Arith{Op: expr.Mul, L: b.Col("l", "l_extendedprice"),
		R: &expr.Arith{Op: expr.Sub, L: num(1), R: b.Col("l", "l_discount")}}
	b.SelectCol("n", "n_name")
	b.SelectAgg(logical.AggSum, rev, "revenue")
	b.GroupBy(b.Col("n", "n_name"))
	b.OrderBy(b.Col("n", "n_name"), false)
	return b.Build()
}

// Q7 — volume shipping between two nations, with the disjunctive
// nation-pair predicate intact.
func Q7(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("supplier", "s")
	b.AddTable("lineitem", "l")
	b.AddTable("orders", "o")
	b.AddTable("customer", "c")
	b.AddTable("nation", "n1")
	b.AddTable("nation", "n2")
	b.Where(eq(b.Col("s", "s_suppkey"), b.Col("l", "l_suppkey")))
	b.Where(eq(b.Col("o", "o_orderkey"), b.Col("l", "l_orderkey")))
	b.Where(eq(b.Col("c", "c_custkey"), b.Col("o", "o_custkey")))
	b.Where(eq(b.Col("s", "s_nationkey"), b.Col("n1", "n_nationkey")))
	b.Where(eq(b.Col("c", "c_nationkey"), b.Col("n2", "n_nationkey")))
	pair := &expr.Logic{Op: expr.Or, Args: []expr.Expr{
		&expr.Logic{Op: expr.And, Args: []expr.Expr{
			eq(b.Col("n1", "n_name"), str("FRANCE")),
			eq(b.Col("n2", "n_name"), str("GERMANY")),
		}},
		&expr.Logic{Op: expr.And, Args: []expr.Expr{
			eq(b.Col("n1", "n_name"), str("GERMANY")),
			eq(b.Col("n2", "n_name"), str("FRANCE")),
		}},
	}}
	b.Where(pair)
	b.Where(ge(b.Col("l", "l_shipdate"), date(1995, 1, 1)))
	b.Where(le(b.Col("l", "l_shipdate"), date(1996, 12, 31)))
	b.SelectCol("n1", "n_name")
	b.SelectCol("n2", "n_name")
	b.SelectAgg(logical.AggSum, b.Col("l", "l_extendedprice"), "volume")
	b.GroupBy(b.Col("n1", "n_name"), b.Col("n2", "n_name"))
	return b.Build()
}

// Q8 — national market share: an eight-way join.
func Q8(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("part", "p")
	b.AddTable("lineitem", "l")
	b.AddTable("supplier", "s")
	b.AddTable("orders", "o")
	b.AddTable("customer", "c")
	b.AddTable("nation", "n1")
	b.AddTable("nation", "n2")
	b.AddTable("region", "r")
	b.Where(eq(b.Col("p", "p_partkey"), b.Col("l", "l_partkey")))
	b.Where(eq(b.Col("s", "s_suppkey"), b.Col("l", "l_suppkey")))
	b.Where(eq(b.Col("l", "l_orderkey"), b.Col("o", "o_orderkey")))
	b.Where(eq(b.Col("o", "o_custkey"), b.Col("c", "c_custkey")))
	b.Where(eq(b.Col("c", "c_nationkey"), b.Col("n1", "n_nationkey")))
	b.Where(eq(b.Col("n1", "n_regionkey"), b.Col("r", "r_regionkey")))
	b.Where(eq(b.Col("s", "s_nationkey"), b.Col("n2", "n_nationkey")))
	b.Where(eq(b.Col("r", "r_name"), str("AMERICA")))
	b.Where(ge(b.Col("o", "o_orderdate"), date(1995, 1, 1)))
	b.Where(le(b.Col("o", "o_orderdate"), date(1996, 12, 31)))
	b.Where(eq(b.Col("p", "p_type"), str("ECONOMY BRASS")))
	b.SelectCol("n2", "n_name")
	b.SelectAgg(logical.AggSum, b.Col("l", "l_extendedprice"), "volume")
	b.GroupBy(b.Col("n2", "n_name"))
	b.OrderBy(b.Col("n2", "n_name"), false)
	return b.Build()
}

// Q9 — product type profit measure, with the fuzzy LIKE on p_name that the
// estimator can only guess at.
func Q9(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("part", "p")
	b.AddTable("supplier", "s")
	b.AddTable("lineitem", "l")
	b.AddTable("partsupp", "ps")
	b.AddTable("orders", "o")
	b.AddTable("nation", "n")
	b.Where(eq(b.Col("s", "s_suppkey"), b.Col("l", "l_suppkey")))
	b.Where(eq(b.Col("ps", "ps_suppkey"), b.Col("l", "l_suppkey")))
	b.Where(eq(b.Col("ps", "ps_partkey"), b.Col("l", "l_partkey")))
	b.Where(eq(b.Col("p", "p_partkey"), b.Col("l", "l_partkey")))
	b.Where(eq(b.Col("o", "o_orderkey"), b.Col("l", "l_orderkey")))
	b.Where(eq(b.Col("s", "s_nationkey"), b.Col("n", "n_nationkey")))
	b.Where(expr.NewLike(b.Col("p", "p_name"), "%azure%", false))
	b.SelectCol("n", "n_name")
	b.SelectAgg(logical.AggSum, b.Col("l", "l_extendedprice"), "profit")
	b.GroupBy(b.Col("n", "n_name"))
	b.OrderBy(b.Col("n", "n_name"), false)
	return b.Build()
}

// q10Base builds Q10's join skeleton: customer ⋈ orders ⋈ lineitem ⋈ nation.
func q10Base(cat *catalog.Catalog) *logical.Builder {
	b := logical.NewBuilder(cat)
	b.AddTable("customer", "c")
	b.AddTable("orders", "o")
	b.AddTable("lineitem", "l")
	b.AddTable("nation", "n")
	b.Where(eq(b.Col("c", "c_custkey"), b.Col("o", "o_custkey")))
	b.Where(eq(b.Col("l", "l_orderkey"), b.Col("o", "o_orderkey")))
	b.Where(eq(b.Col("c", "c_nationkey"), b.Col("n", "n_nationkey")))
	rev := &expr.Arith{Op: expr.Mul, L: b.Col("l", "l_extendedprice"),
		R: &expr.Arith{Op: expr.Sub, L: num(1), R: b.Col("l", "l_discount")}}
	b.SelectCol("c", "c_name")
	b.SelectAgg(logical.AggSum, rev, "revenue")
	b.SelectAgg(logical.AggMax, b.Col("c", "c_acctbal"), "acctbal")
	b.GroupBy(b.Col("c", "c_name"))
	return b
}

// Q10Param is the paper's Figure 11 query: Q10 with the LINEITEM selection
// replaced by a parameter marker (l_quantity <= ?0), so the optimizer must
// use a default selectivity at compile time.
func Q10Param(cat *catalog.Catalog) (*logical.Query, error) {
	b := q10Base(cat)
	b.Where(le(b.Col("l", "l_quantity"), b.Param(0)))
	return b.Build()
}

// Q10Literal is Q10 with the LINEITEM selection given as a literal, so the
// optimizer sees the true selectivity — the paper's "correct selectivity
// estimate" reference curve. Quantities are uniform on [1, 50]: qty selects
// qty/50 of LINEITEM.
func Q10Literal(cat *catalog.Catalog, qty float64) (*logical.Query, error) {
	b := q10Base(cat)
	b.Where(le(b.Col("l", "l_quantity"), num(qty)))
	return b.Build()
}

// Q10SQL is the serving workload's statement (serve_hot in bench/sql.go): a
// three-way Q10 join, revenue per customer name, whose quantity predicate's
// selectivity the binding of ?0 controls. Tests and root benchmarks parse it
// to measure the serving path's engine work in process.
const Q10SQL = `SELECT c_name, SUM(l_extendedprice) AS revenue
	FROM customer, orders, lineitem
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_quantity <= ?
	GROUP BY c_name`

// Q11 — important stock identification over partsupp ⋈ supplier ⋈ nation.
func Q11(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("partsupp", "ps")
	b.AddTable("supplier", "s")
	b.AddTable("nation", "n")
	b.Where(eq(b.Col("ps", "ps_suppkey"), b.Col("s", "s_suppkey")))
	b.Where(eq(b.Col("s", "s_nationkey"), b.Col("n", "n_nationkey")))
	b.Where(eq(b.Col("n", "n_name"), str("GERMANY")))
	value := &expr.Arith{Op: expr.Mul, L: b.Col("ps", "ps_supplycost"),
		R: b.Col("ps", "ps_availqty")}
	b.SelectCol("ps", "ps_partkey")
	b.SelectAgg(logical.AggSum, value, "value")
	b.GroupBy(b.Col("ps", "ps_partkey"))
	b.OrderBy(b.Col("ps", "ps_partkey"), false)
	return b.Build()
}

// Q18 — large volume customers: customer ⋈ orders ⋈ lineitem with a
// quantity filter and a two-key grouping.
func Q18(cat *catalog.Catalog) (*logical.Query, error) {
	b := logical.NewBuilder(cat)
	b.AddTable("customer", "c")
	b.AddTable("orders", "o")
	b.AddTable("lineitem", "l")
	b.Where(eq(b.Col("c", "c_custkey"), b.Col("o", "o_custkey")))
	b.Where(eq(b.Col("o", "o_orderkey"), b.Col("l", "l_orderkey")))
	b.Where(gt(b.Col("l", "l_quantity"), num(45)))
	b.SelectCol("c", "c_name")
	b.SelectCol("o", "o_orderkey")
	b.SelectAgg(logical.AggSum, b.Col("l", "l_quantity"), "total_qty")
	b.GroupBy(b.Col("c", "c_name"), b.Col("o", "o_orderkey"))
	b.OrderBy(b.Col("o", "o_orderkey"), false)
	return b.Build()
}
