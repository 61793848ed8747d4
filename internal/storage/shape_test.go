package storage_test

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/dmv"
	"repro/internal/tpch"
)

// The cost model charges Height() levels per index probe, so a change to how
// the trees are stored must leave every benchmark index's shape as it is.
// These are the indexes of TPC-H SF 0.005 and DMV scale 0.5.
func TestIndexShapesPinned(t *testing.T) {
	want := map[string][2]int{ // name → {Height, EntryCount}
		"customer_pk":    {2, 750},
		"lineitem_order": {3, 30000},
		"lineitem_part":  {2, 30000},
		"lineitem_supp":  {1, 30000},
		"nation_pk":      {1, 25},
		"orders_pk":      {3, 7500},
		"orders_cust":    {2, 7500},
		"part_pk":        {2, 1000},
		"partsupp_part":  {2, 4000},
		"region_pk":      {1, 5},
		"supplier_pk":    {1, 50},

		"car_pk":              {3, 15000},
		"car_owner":           {3, 15000},
		"company_pk":          {1, 25},
		"county_pk":           {1, 20},
		"dealer_pk":           {2, 400},
		"inspection_car":      {3, 12000},
		"inspection_station":  {2, 12000},
		"insurance_car":       {3, 13500},
		"insurance_company":   {1, 13500},
		"office_pk":           {2, 150},
		"owner_pk":            {3, 10000},
		"registration_car":    {3, 16500},
		"registration_office": {2, 16500},
		"station_pk":          {2, 220},
	}
	tc := catalog.New()
	if err := tpch.Load(tc, tpch.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	dc := catalog.New()
	if err := dmv.Load(dc, dmv.Config{Scale: 0.5, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, c := range []*catalog.Catalog{tc, dc} {
		for _, name := range c.TableNames() {
			tab, err := c.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ix := range tab.BTrees {
				seen++
				w, ok := want[ix.Name()]
				if !ok {
					t.Errorf("index %s is not pinned", ix.Name())
					continue
				}
				if got := [2]int{ix.Height(), ix.EntryCount()}; got != w {
					t.Errorf("%s: height, entries = %v, want %v", ix.Name(), got, w)
				}
			}
		}
	}
	if seen != len(want) {
		t.Errorf("found %d indexes, want %d", seen, len(want))
	}
}
