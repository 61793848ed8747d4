package main

// stmtHot is serve_hot's statement: the parameterized three-way Q10 join the
// repo's serving study also uses, so ROADMAP's "unexplained cached-Q10
// latency" cell and this workload measure the same request.
const stmtHot = `SELECT c_name, SUM(l_extendedprice) AS revenue
	FROM customer, orders, lineitem
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_quantity <= ?
	GROUP BY c_name`

// stmtFetch is serve_fetch's statement: a plain filtered scan whose reply
// (9.6k-14.4k rendered rows) costs more than its execution.
const stmtFetch = `SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_shipdate
	FROM lineitem WHERE l_quantity <= ?`

// tpchSQL carries exec_tpch's nine literal statements as SQL text, keyed by
// the name tpch.Queries uses. They are written out, not derived from
// Query.String(): that prints dates unquoted and drops the parentheses
// around a top-level OR, so Q3/Q4/Q5/Q7/Q8 would re-parse into different
// queries. checkTPCHText asserts at start-up that each text parses to the
// builder-made query's plan-cache key.
var tpchSQL = []struct{ name, sql string }{
	{"Q2", `SELECT s.s_acctbal, s.s_name, n.n_name, p.p_partkey
	FROM part p, partsupp ps, supplier s, nation n, region r
	WHERE p.p_partkey = ps.ps_partkey AND ps.ps_suppkey = s.s_suppkey
	  AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey
	  AND p.p_size = 15 AND r.r_name = 'EUROPE'
	ORDER BY s.s_acctbal DESC LIMIT 100`},
	{"Q3", `SELECT l.l_orderkey, SUM(l.l_extendedprice * (1.0 - l.l_discount)) AS revenue
	FROM customer c, orders o, lineitem l
	WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
	  AND c.c_mktsegment = 'BUILDING'
	  AND o.o_orderdate < DATE '1995-03-15' AND l.l_shipdate > DATE '1995-03-15'
	GROUP BY l.l_orderkey ORDER BY l.l_orderkey`},
	{"Q4", `SELECT o.o_orderpriority, COUNT(*) AS order_count
	FROM orders o, lineitem l
	WHERE l.l_orderkey = o.o_orderkey
	  AND o.o_orderdate >= DATE '1993-07-01' AND o.o_orderdate < DATE '1993-10-01'
	  AND l.l_commitdate < l.l_receiptdate
	GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority`},
	{"Q5", `SELECT n.n_name, SUM(l.l_extendedprice * (1.0 - l.l_discount)) AS revenue
	FROM customer c, orders o, lineitem l, supplier s, nation n, region r
	WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
	  AND l.l_suppkey = s.s_suppkey AND c.c_nationkey = s.s_nationkey
	  AND s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey
	  AND r.r_name = 'ASIA'
	  AND o.o_orderdate >= DATE '1994-01-01' AND o.o_orderdate < DATE '1995-01-01'
	GROUP BY n.n_name ORDER BY n.n_name`},
	{"Q7", `SELECT n1.n_name, n2.n_name, SUM(l.l_extendedprice) AS volume
	FROM supplier s, lineitem l, orders o, customer c, nation n1, nation n2
	WHERE s.s_suppkey = l.l_suppkey AND o.o_orderkey = l.l_orderkey
	  AND c.c_custkey = o.o_custkey
	  AND s.s_nationkey = n1.n_nationkey AND c.c_nationkey = n2.n_nationkey
	  AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
	    OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
	  AND l.l_shipdate >= DATE '1995-01-01' AND l.l_shipdate <= DATE '1996-12-31'
	GROUP BY n1.n_name, n2.n_name`},
	{"Q8", `SELECT n2.n_name, SUM(l.l_extendedprice) AS volume
	FROM part p, lineitem l, supplier s, orders o, customer c, nation n1, nation n2, region r
	WHERE p.p_partkey = l.l_partkey AND s.s_suppkey = l.l_suppkey
	  AND l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
	  AND c.c_nationkey = n1.n_nationkey AND n1.n_regionkey = r.r_regionkey
	  AND s.s_nationkey = n2.n_nationkey AND r.r_name = 'AMERICA'
	  AND o.o_orderdate >= DATE '1995-01-01' AND o.o_orderdate <= DATE '1996-12-31'
	  AND p.p_type = 'ECONOMY BRASS'
	GROUP BY n2.n_name ORDER BY n2.n_name`},
	{"Q9", `SELECT n.n_name, SUM(l.l_extendedprice) AS profit
	FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n
	WHERE s.s_suppkey = l.l_suppkey AND ps.ps_suppkey = l.l_suppkey
	  AND ps.ps_partkey = l.l_partkey AND p.p_partkey = l.l_partkey
	  AND o.o_orderkey = l.l_orderkey AND s.s_nationkey = n.n_nationkey
	  AND p.p_name LIKE '%azure%'
	GROUP BY n.n_name ORDER BY n.n_name`},
	{"Q11", `SELECT ps.ps_partkey, SUM(ps.ps_supplycost * ps.ps_availqty) AS value
	FROM partsupp ps, supplier s, nation n
	WHERE ps.ps_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey
	  AND n.n_name = 'GERMANY'
	GROUP BY ps.ps_partkey ORDER BY ps.ps_partkey`},
	{"Q18", `SELECT c.c_name, o.o_orderkey, SUM(l.l_quantity) AS total_qty
	FROM customer c, orders o, lineitem l
	WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey
	  AND l.l_quantity > 45.0
	GROUP BY c.c_name, o.o_orderkey ORDER BY o.o_orderkey`},
}
