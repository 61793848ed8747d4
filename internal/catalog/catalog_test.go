package catalog

import (
	"math"
	"testing"

	"repro/internal/schema"
	"repro/internal/types"
)

func buildCatalog(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := New()
	s := schema.New(
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "grp", Type: types.KindInt},
		schema.Column{Name: "label", Type: types.KindString, Nullable: true},
	)
	tab, err := c.CreateTable("items", s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		label := types.NewString("even")
		if i%2 == 1 {
			label = types.Null
		}
		tab.Heap.MustInsert(schema.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 10)), label})
	}
	return c, tab
}

func TestCreateAndLookupTable(t *testing.T) {
	c, _ := buildCatalog(t)
	tab, err := c.Table("ITEMS") // case-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name != "items" || tab.RowCount() != 200 {
		t.Errorf("table = %s rows = %v", tab.Name, tab.RowCount())
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table should error")
	}
	if _, err := c.CreateTable("items", tab.Schema); err == nil {
		t.Error("duplicate create should error")
	}
	names := c.TableNames()
	if len(names) != 1 || names[0] != "items" {
		t.Errorf("names = %v", names)
	}
}

func TestCreateIndexes(t *testing.T) {
	c, tab := buildCatalog(t)
	bt, err := c.CreateBTreeIndex("items_id", "items", "id")
	if err != nil {
		t.Fatal(err)
	}
	if bt.EntryCount() != 200 {
		t.Errorf("btree entries = %d", bt.EntryCount())
	}
	if tab.BTreeOn(0) != bt {
		t.Error("BTreeOn(0) should find the index")
	}
	if tab.BTreeOn(1) != nil {
		t.Error("BTreeOn(1) should be nil")
	}
	// Errors.
	if _, err := c.CreateBTreeIndex("x", "missing", "id"); err == nil {
		t.Error("index on missing table should error")
	}
	if _, err := c.CreateBTreeIndex("x", "items", "nope"); err == nil {
		t.Error("index on missing column should error")
	}
}

func TestAnalyzeTable(t *testing.T) {
	c, tab := buildCatalog(t)
	if tab.Stats(0) != nil {
		t.Error("stats should be nil before analyze")
	}
	if err := c.AnalyzeAll(); err != nil {
		t.Fatal(err)
	}
	cs := tab.Stats(0)
	if cs == nil {
		t.Fatal("stats missing after analyze")
	}
	if cs.RowCount != 200 || math.Abs(cs.Distinct-200) > 2 {
		t.Errorf("id stats: rows=%v distinct=%v", cs.RowCount, cs.Distinct)
	}
	grp := tab.Stats(1)
	if math.Abs(grp.Distinct-10) > 1 {
		t.Errorf("grp distinct = %v, want ~10", grp.Distinct)
	}
	lbl := tab.Stats(2)
	if math.Abs(lbl.NullFraction-0.5) > 0.01 {
		t.Errorf("label null fraction = %v, want 0.5", lbl.NullFraction)
	}
	if tab.Stats(-1) != nil || tab.Stats(99) != nil {
		t.Error("out-of-range stats should be nil")
	}
	if err := c.AnalyzeTable("missing"); err == nil {
		t.Error("analyze of missing table should error")
	}
}
