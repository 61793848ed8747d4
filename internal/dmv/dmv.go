// Package dmv synthesizes the paper's §6 case study: a department-of-motor-
// vehicles database with strong cross-column correlations (MAKE↔MODEL↔COLOR,
// MODEL↔WEIGHT, owner ZIP↔car ZIP, AGE↔MAKE) and a workload of 39 complex
// decision-support queries over it.
//
// The paper's DMV data is proprietary; this generator reproduces the
// property that matters — functional dependencies and correlations that the
// optimizer's independence assumption turns into cardinality under-estimates
// of many orders of magnitude (the paper observed errors exceeding 10^6).
package dmv

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/schema"
	"repro/internal/types"
)

// Config controls generation.
type Config struct {
	// Scale multiplies the default table sizes (CAR ≈ 30000×Scale).
	Scale float64
	Seed  uint64
}

// DefaultConfig is the laptop-scale default.
func DefaultConfig() Config { return Config{Scale: 1, Seed: 17} }

// rng is the same xorshift64* PRNG the TPC-H generator uses.
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

// Correlation structure constants.
const (
	numMakes     = 20
	modelsPerMk  = 4
	numModels    = numMakes * modelsPerMk
	numColors    = 12
	numZips      = 100
	numCounties  = 20
	numCompanies = 25
)

var makeNames = []string{
	"TOYOTA", "FORD", "HONDA", "CHEVY", "NISSAN", "BMW", "AUDI", "KIA",
	"MAZDA", "VOLVO", "FIAT", "JEEP", "SUBARU", "TESLA", "DODGE", "LEXUS",
	"ACURA", "BUICK", "SAAB", "MINI",
}

var colorNames = []string{
	"BLACK", "WHITE", "SILVER", "GRAY", "RED", "BLUE", "GREEN", "BROWN",
	"YELLOW", "ORANGE", "PURPLE", "GOLD",
}

// MakeName returns the make string for index m.
func MakeName(m int) string { return makeNames[m%numMakes] }

// ModelName returns the model string for model index md; the make is
// recoverable from the model (md / modelsPerMk).
func ModelName(md int) string {
	return fmt.Sprintf("%s-M%d", makeNames[(md/modelsPerMk)%numMakes], md%modelsPerMk)
}

// ColorName returns a color string.
func ColorName(c int) string { return colorNames[((c%numColors)+numColors)%numColors] }

// ColorForModel is the correlated color assignment: each model concentrates
// on 3 of the 12 colors.
func ColorForModel(md int, pick int) int { return (md*3 + pick%3) % numColors }

// WeightForModel is the near-functional weight: model determines weight
// within a ±24 kg band.
func WeightForModel(md int, jitter int) int { return 1000 + md*45 + jitter%25 }

// sizes returns table cardinalities under a scale.
func sizes(scale float64) map[string]int {
	s := func(n float64) int {
		v := int(n * scale)
		if v < 10 {
			v = 10
		}
		return v
	}
	return map[string]int{
		"owner":        s(20000),
		"car":          s(30000),
		"registration": s(33000),
		"inspection":   s(24000),
		"violation":    s(18000),
		"insurance":    s(27000),
		"accident":     s(9000),
		"dealer":       400,
		"office":       150,
		"station":      220,
		"company":      numCompanies,
		"county":       numCounties,
	}
}

// Load creates and populates the DMV database: 12 tables, indexes on every
// key and foreign key, statistics analyzed.
func Load(cat *catalog.Catalog, cfg Config) error {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	n := sizes(cfg.Scale)
	r := newRNG(cfg.Seed)
	// Every repeated string value is built once and shared by its rows; a
	// name made from the row number is unique and built directly.
	var in types.Interner

	county, err := cat.CreateTable("county", schema.New(
		schema.Column{Name: "cy_id", Type: types.KindInt},
		schema.Column{Name: "cy_name", Type: types.KindString},
		schema.Column{Name: "cy_region", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n["county"]; i++ {
		county.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("COUNTY_%02d", i)),
			in.String([]string{"NORTH", "SOUTH", "EAST", "WEST"}[i%4]),
		})
	}

	office, err := cat.CreateTable("office", schema.New(
		schema.Column{Name: "of_id", Type: types.KindInt},
		schema.Column{Name: "of_zip", Type: types.KindInt},
		schema.Column{Name: "of_county", Type: types.KindInt},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n["office"]; i++ {
		zip := r.intn(numZips)
		office.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(zip)),
			types.NewInt(int64(zip % numCounties)), // zip determines county
		})
	}

	station, err := cat.CreateTable("station", schema.New(
		schema.Column{Name: "st_id", Type: types.KindInt},
		schema.Column{Name: "st_zip", Type: types.KindInt},
		schema.Column{Name: "st_grade", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n["station"]; i++ {
		station.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.intn(numZips))),
			in.String([]string{"A", "B", "C"}[r.intn(3)]),
		})
	}

	company, err := cat.CreateTable("company", schema.New(
		schema.Column{Name: "co_id", Type: types.KindInt},
		schema.Column{Name: "co_name", Type: types.KindString},
		schema.Column{Name: "co_rating", Type: types.KindInt},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n["company"]; i++ {
		company.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("INSURER_%02d", i)),
			types.NewInt(int64(1 + r.intn(5))),
		})
	}

	dealer, err := cat.CreateTable("dealer", schema.New(
		schema.Column{Name: "d_id", Type: types.KindInt},
		schema.Column{Name: "d_name", Type: types.KindString},
		schema.Column{Name: "d_zip", Type: types.KindInt},
		schema.Column{Name: "d_make", Type: types.KindString},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n["dealer"]; i++ {
		dealer.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("DEALER_%03d", i)),
			types.NewInt(int64(r.intn(numZips))),
			in.String(MakeName(r.intn(numMakes))),
		})
	}

	owner, err := cat.CreateTable("owner", schema.New(
		schema.Column{Name: "o_id", Type: types.KindInt},
		schema.Column{Name: "o_name", Type: types.KindString},
		schema.Column{Name: "o_age", Type: types.KindInt},
		schema.Column{Name: "o_zip", Type: types.KindInt},
		schema.Column{Name: "o_income", Type: types.KindFloat},
	))
	if err != nil {
		return err
	}
	// Owner preferred make drives the AGE↔MAKE correlation: the make of an
	// owner's car depends on the owner, and the owner's age clusters by it.
	ownerMake := make([]int, n["owner"])
	ownerZip := make([]int, n["owner"])
	for i := 0; i < n["owner"]; i++ {
		mk := r.intn(numMakes)
		ownerMake[i] = mk
		// ZIP↔MAKE correlation: each zip concentrates on 5 makes.
		zip := (mk*5 + r.intn(5)) % numZips
		ownerZip[i] = zip
		age := 18 + mk*2 + r.intn(12) // AGE↔MAKE correlation
		owner.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("OWNER_%06d", i)),
			types.NewInt(int64(age)),
			types.NewInt(int64(zip)),
			types.NewFloat(15000 + r.float()*185000),
		})
	}

	car, err := cat.CreateTable("car", schema.New(
		schema.Column{Name: "c_id", Type: types.KindInt},
		schema.Column{Name: "c_owner", Type: types.KindInt},
		schema.Column{Name: "c_make", Type: types.KindString},
		schema.Column{Name: "c_model", Type: types.KindString},
		schema.Column{Name: "c_color", Type: types.KindString},
		schema.Column{Name: "c_weight", Type: types.KindInt},
		schema.Column{Name: "c_year", Type: types.KindInt},
		schema.Column{Name: "c_zip", Type: types.KindInt},
	))
	if err != nil {
		return err
	}
	for i := 0; i < n["car"]; i++ {
		ow := r.intn(n["owner"])
		mk := ownerMake[ow] // owner's preferred make
		md := mk*modelsPerMk + r.intn(modelsPerMk)
		car.Heap.MustInsert(schema.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(ow)),
			in.String(MakeName(mk)),
			in.String(ModelName(md)),
			types.NewString(ColorName(ColorForModel(md, r.intn(3)))),
			types.NewInt(int64(WeightForModel(md, r.intn(25)))),
			types.NewInt(int64(1985 + r.intn(20))),
			types.NewInt(int64(ownerZip[ow])), // car registered at owner zip
		})
	}

	fkTables := []struct {
		name string
		cols []schema.Column
		fill func(t *catalog.Table)
	}{
		{
			name: "registration",
			cols: []schema.Column{
				{Name: "r_id", Type: types.KindInt},
				{Name: "r_car", Type: types.KindInt},
				{Name: "r_office", Type: types.KindInt},
				{Name: "r_year", Type: types.KindInt},
				{Name: "r_fee", Type: types.KindFloat},
			},
			fill: func(t *catalog.Table) {
				for i := 0; i < n["registration"]; i++ {
					t.Heap.MustInsert(schema.Row{
						types.NewInt(int64(i)),
						types.NewInt(int64(i % n["car"])),
						types.NewInt(int64(r.intn(n["office"]))),
						types.NewInt(int64(2000 + r.intn(5))),
						types.NewFloat(20 + r.float()*380),
					})
				}
			},
		},
		{
			name: "inspection",
			cols: []schema.Column{
				{Name: "i_id", Type: types.KindInt},
				{Name: "i_car", Type: types.KindInt},
				{Name: "i_station", Type: types.KindInt},
				{Name: "i_result", Type: types.KindString},
				{Name: "i_year", Type: types.KindInt},
			},
			fill: func(t *catalog.Table) {
				for i := 0; i < n["inspection"]; i++ {
					res := "PASS"
					if r.intn(10) < 2 {
						res = "FAIL"
					}
					t.Heap.MustInsert(schema.Row{
						types.NewInt(int64(i)),
						types.NewInt(int64(r.intn(n["car"]))),
						types.NewInt(int64(r.intn(n["station"]))),
						in.String(res),
						types.NewInt(int64(2000 + r.intn(5))),
					})
				}
			},
		},
		{
			name: "violation",
			cols: []schema.Column{
				{Name: "v_id", Type: types.KindInt},
				{Name: "v_car", Type: types.KindInt},
				{Name: "v_type", Type: types.KindString},
				{Name: "v_fine", Type: types.KindFloat},
			},
			fill: func(t *catalog.Table) {
				kinds := []string{"SPEEDING", "PARKING", "SIGNAL", "DUI", "EXPIRED"}
				for i := 0; i < n["violation"]; i++ {
					t.Heap.MustInsert(schema.Row{
						types.NewInt(int64(i)),
						types.NewInt(int64(r.intn(n["car"]))),
						in.String(kinds[r.intn(len(kinds))]),
						types.NewFloat(25 + r.float()*975),
					})
				}
			},
		},
		{
			name: "insurance",
			cols: []schema.Column{
				{Name: "ins_id", Type: types.KindInt},
				{Name: "ins_car", Type: types.KindInt},
				{Name: "ins_company", Type: types.KindInt},
				{Name: "ins_premium", Type: types.KindFloat},
			},
			fill: func(t *catalog.Table) {
				for i := 0; i < n["insurance"]; i++ {
					t.Heap.MustInsert(schema.Row{
						types.NewInt(int64(i)),
						types.NewInt(int64(i % n["car"])),
						types.NewInt(int64(r.intn(numCompanies))),
						types.NewFloat(300 + r.float()*2700),
					})
				}
			},
		},
		{
			name: "accident",
			cols: []schema.Column{
				{Name: "a_id", Type: types.KindInt},
				{Name: "a_car", Type: types.KindInt},
				{Name: "a_severity", Type: types.KindInt},
				{Name: "a_damage", Type: types.KindFloat},
			},
			fill: func(t *catalog.Table) {
				for i := 0; i < n["accident"]; i++ {
					t.Heap.MustInsert(schema.Row{
						types.NewInt(int64(i)),
						types.NewInt(int64(r.intn(n["car"]))),
						types.NewInt(int64(1 + r.intn(5))),
						types.NewFloat(100 + r.float()*49900),
					})
				}
			},
		},
	}
	for _, ft := range fkTables {
		t, err := cat.CreateTable(ft.name, schema.New(ft.cols...))
		if err != nil {
			return err
		}
		ft.fill(t)
	}

	// VIOLATION and ACCIDENT are deliberately index-less on their foreign
	// keys: they model the ad-hoc log tables of the real DMV system. When
	// the correlated predicates make the optimizer believe an intermediate
	// result has almost no rows, joining such a table by repeated scans
	// (naive NLJN) looks cheap — the kind of plan whose actual cost explodes
	// by orders of magnitude, which is where the paper's biggest POP
	// speedups come from (§6).
	indexes := [][3]string{
		{"owner_pk", "owner", "o_id"},
		{"car_pk", "car", "c_id"},
		{"car_owner", "car", "c_owner"},
		{"registration_car", "registration", "r_car"},
		{"registration_office", "registration", "r_office"},
		{"inspection_car", "inspection", "i_car"},
		{"inspection_station", "inspection", "i_station"},
		{"insurance_car", "insurance", "ins_car"},
		{"insurance_company", "insurance", "ins_company"},
		{"office_pk", "office", "of_id"},
		{"station_pk", "station", "st_id"},
		{"company_pk", "company", "co_id"},
		{"county_pk", "county", "cy_id"},
		{"dealer_pk", "dealer", "d_id"},
	}
	for _, ix := range indexes {
		if _, err := cat.CreateBTreeIndex(ix[0], ix[1], ix[2]); err != nil {
			return err
		}
	}
	return cat.AnalyzeAll()
}
