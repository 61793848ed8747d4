// Package tpch provides a deterministic, scale-configurable TPC-H database
// generator and the TPC-H-derived query set the paper's evaluation uses
// (Q2, Q3, Q4, Q5, Q7, Q8, Q9, Q10, Q11, Q18). The generator is a dbgen-style
// synthesizer: laptop-scale by default, with the same schema, key structure,
// skew and date ranges that the experiments depend on.
package tpch

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/schema"
	"repro/internal/types"
)

// Config controls generation.
type Config struct {
	// ScaleFactor scales table cardinalities relative to TPC-H SF1
	// (LINEITEM ≈ 6M rows at SF1). The default 0.005 yields a ~30k-row
	// LINEITEM — large enough for plan crossovers, small enough for tests.
	ScaleFactor float64
	// Seed drives the deterministic PRNG.
	Seed uint64
	// SkipIndexes omits index builds (for tests that want pure scans).
	SkipIndexes bool
}

// DefaultConfig returns the standard laptop-scale configuration.
func DefaultConfig() Config { return Config{ScaleFactor: 0.005, Seed: 42} }

// rng is a xorshift64* PRNG: deterministic across platforms.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{state: seed}
}

func (r *rng) next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// Sizes returns the table cardinalities for a scale factor.
func Sizes(sf float64) map[string]int {
	scale := func(n float64) int {
		v := int(n * sf)
		if v < 1 {
			v = 1
		}
		return v
	}
	return map[string]int{
		"region":   5,
		"nation":   25,
		"supplier": scale(10000),
		"customer": scale(150000),
		"part":     scale(200000),
		"partsupp": scale(800000),
		"orders":   scale(1500000),
		"lineitem": scale(6000000),
	}
}

var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	partTypes  = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	partMetals = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	partColors = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse"}
	returnFlags = []string{"R", "A", "N"}
)

// Load creates, populates, indexes and analyzes the full TPC-H schema in
// the catalog.
func Load(cat *catalog.Catalog, cfg Config) error {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = DefaultConfig().ScaleFactor
	}
	sizes := Sizes(cfg.ScaleFactor)
	r := newRNG(cfg.Seed)
	// Every repeated string value is built once and shared by its rows; a
	// name made from the row number is unique and built directly.
	var in types.Interner

	region, err := cat.CreateTable("region", schema.New(
		schema.Column{Name: "r_regionkey", Type: types.KindInt},
		schema.Column{Name: "r_name", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["region"]; i++ {
		region.Heap.MustInsert(schema.Row{types.NewInt(int64(i)), in.String(regionNames[i%len(regionNames)])})
	}

	nation, err := cat.CreateTable("nation", schema.New(
		schema.Column{Name: "n_nationkey", Type: types.KindInt},
		schema.Column{Name: "n_name", Type: types.KindString},
		schema.Column{Name: "n_regionkey", Type: types.KindInt},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["nation"]; i++ {
		nation.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			in.String(nationNames[i%len(nationNames)]),
			types.NewInt(int64(i % sizes["region"])),
		})
	}

	supplier, err := cat.CreateTable("supplier", schema.New(
		schema.Column{Name: "s_suppkey", Type: types.KindInt},
		schema.Column{Name: "s_name", Type: types.KindString},
		schema.Column{Name: "s_nationkey", Type: types.KindInt},
		schema.Column{Name: "s_acctbal", Type: types.KindFloat},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["supplier"]; i++ {
		supplier.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Supplier#%09d", i)),
			types.NewInt(int64(r.intn(sizes["nation"]))),
			types.NewFloat(-999 + r.float()*10998),
		})
	}

	customer, err := cat.CreateTable("customer", schema.New(
		schema.Column{Name: "c_custkey", Type: types.KindInt},
		schema.Column{Name: "c_name", Type: types.KindString},
		schema.Column{Name: "c_nationkey", Type: types.KindInt},
		schema.Column{Name: "c_acctbal", Type: types.KindFloat},
		schema.Column{Name: "c_mktsegment", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["customer"]; i++ {
		customer.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Customer#%09d", i)),
			types.NewInt(int64(r.intn(sizes["nation"]))),
			types.NewFloat(-999 + r.float()*10998),
			in.String(segments[r.intn(len(segments))]),
		})
	}

	part, err := cat.CreateTable("part", schema.New(
		schema.Column{Name: "p_partkey", Type: types.KindInt},
		schema.Column{Name: "p_name", Type: types.KindString},
		schema.Column{Name: "p_brand", Type: types.KindString},
		schema.Column{Name: "p_type", Type: types.KindString},
		schema.Column{Name: "p_size", Type: types.KindInt},
		schema.Column{Name: "p_retailprice", Type: types.KindFloat},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["part"]; i++ {
		color := partColors[r.intn(len(partColors))]
		part.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			in.String(color + " " + partColors[r.intn(len(partColors))]),
			in.String(fmt.Sprintf("Brand#%d%d", 1+r.intn(5), 1+r.intn(5))),
			in.String(partTypes[r.intn(len(partTypes))] + " " + partMetals[r.intn(len(partMetals))]),
			types.NewInt(int64(1 + r.intn(50))),
			types.NewFloat(900 + r.float()*1200),
		})
	}

	partsupp, err := cat.CreateTable("partsupp", schema.New(
		schema.Column{Name: "ps_partkey", Type: types.KindInt},
		schema.Column{Name: "ps_suppkey", Type: types.KindInt},
		schema.Column{Name: "ps_availqty", Type: types.KindInt},
		schema.Column{Name: "ps_supplycost", Type: types.KindFloat},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["partsupp"]; i++ {
		partsupp.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i % sizes["part"])),
			types.NewInt(int64(r.intn(sizes["supplier"]))),
			types.NewInt(int64(1 + r.intn(9999))),
			types.NewFloat(1 + r.float()*999),
		})
	}

	orders, err := cat.CreateTable("orders", schema.New(
		schema.Column{Name: "o_orderkey", Type: types.KindInt},
		schema.Column{Name: "o_custkey", Type: types.KindInt},
		schema.Column{Name: "o_orderstatus", Type: types.KindString},
		schema.Column{Name: "o_totalprice", Type: types.KindFloat},
		schema.Column{Name: "o_orderdate", Type: types.KindDate},
		schema.Column{Name: "o_orderpriority", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	// Order dates span 1992-01-01 .. 1998-08-02 as in dbgen.
	dateLo := types.MakeDate(1992, 1, 1).Days()
	dateHi := types.MakeDate(1998, 8, 2).Days()
	for i := 0; i < sizes["orders"]; i++ {
		status := "O"
		if r.intn(2) == 0 {
			status = "F"
		}
		orders.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.intn(sizes["customer"]))),
			in.String(status),
			types.NewFloat(1000 + r.float()*450000),
			types.NewDate(dateLo + int64(r.intn(int(dateHi-dateLo)))),
			in.String(priorities[r.intn(len(priorities))]),
		})
	}

	lineitem, err := cat.CreateTable("lineitem", schema.New(
		schema.Column{Name: "l_orderkey", Type: types.KindInt},
		schema.Column{Name: "l_partkey", Type: types.KindInt},
		schema.Column{Name: "l_suppkey", Type: types.KindInt},
		schema.Column{Name: "l_quantity", Type: types.KindFloat},
		schema.Column{Name: "l_extendedprice", Type: types.KindFloat},
		schema.Column{Name: "l_discount", Type: types.KindFloat},
		schema.Column{Name: "l_returnflag", Type: types.KindString},
		schema.Column{Name: "l_shipdate", Type: types.KindDate},
		schema.Column{Name: "l_commitdate", Type: types.KindDate},
		schema.Column{Name: "l_receiptdate", Type: types.KindDate},
		schema.Column{Name: "l_shipmode", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	for i := 0; i < sizes["lineitem"]; i++ {
		okey := int64(i) % int64(sizes["orders"])
		ship := dateLo + int64(r.intn(int(dateHi-dateLo)))
		lineitem.Heap.MustInsert(schema.Row{
			types.NewInt(okey),
			types.NewInt(int64(r.intn(sizes["part"]))),
			types.NewInt(int64(r.intn(sizes["supplier"]))),
			types.NewFloat(float64(1 + r.intn(50))),
			types.NewFloat(900 + r.float()*104000),
			types.NewFloat(float64(r.intn(11)) / 100),
			in.String(returnFlags[r.intn(len(returnFlags))]),
			types.NewDate(ship),
			types.NewDate(ship + int64(r.intn(30))),
			types.NewDate(ship + int64(1+r.intn(30))),
			in.String(shipModes[r.intn(len(shipModes))]),
		})
	}

	if !cfg.SkipIndexes {
		indexes := [][3]string{
			{"region_pk", "region", "r_regionkey"},
			{"nation_pk", "nation", "n_nationkey"},
			{"supplier_pk", "supplier", "s_suppkey"},
			{"customer_pk", "customer", "c_custkey"},
			{"part_pk", "part", "p_partkey"},
			{"partsupp_part", "partsupp", "ps_partkey"},
			{"orders_pk", "orders", "o_orderkey"},
			{"orders_cust", "orders", "o_custkey"},
			{"lineitem_order", "lineitem", "l_orderkey"},
			{"lineitem_part", "lineitem", "l_partkey"},
			{"lineitem_supp", "lineitem", "l_suppkey"},
		}
		for _, ix := range indexes {
			if _, err := cat.CreateBTreeIndex(ix[0], ix[1], ix[2]); err != nil {
				return err
			}
		}
	}
	return cat.AnalyzeAll()
}
