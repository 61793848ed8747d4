package storage

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/schema"
	"repro/internal/types"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	s := schema.New(
		schema.Column{Name: "id", Type: types.KindInt},
		schema.Column{Name: "name", Type: types.KindString},
	)
	return NewTable("t", s)
}

func TestHeapInsertGet(t *testing.T) {
	tab := newTestTable(t)
	rid, err := tab.Insert(schema.Row{types.NewInt(1), types.NewString("a")})
	if err != nil || rid != 0 {
		t.Fatalf("insert: rid=%d err=%v", rid, err)
	}
	rid2, _ := tab.Insert(schema.Row{types.NewInt(2), types.NewString("b")})
	if rid2 != 1 {
		t.Fatalf("second rid = %d", rid2)
	}
	row, err := tab.Get(rid2)
	if err != nil || row[1].Str() != "b" {
		t.Fatalf("get: %v %v", row, err)
	}
	if tab.RowCount() != 2 {
		t.Error("row count")
	}
	if _, err := tab.Get(99); err == nil {
		t.Error("out-of-range get should error")
	}
	if _, err := tab.Get(schema.InvalidRID); err == nil {
		t.Error("invalid rid get should error")
	}
}

// Insert copies the row into a heap block, so the caller's slice is free
// afterwards; the rows handed out are clipped, so an append cannot reach the
// next row; and inserting allocates per block, not per row.
func TestHeapInsertCopiesRow(t *testing.T) {
	tab := newTestTable(t)
	r := schema.Row{types.NewInt(1), types.NewString("a")}
	tab.MustInsert(r)
	tab.MustInsert(schema.Row{types.NewInt(2), types.NewString("b")})
	r[0], r[1] = types.NewInt(99), types.NewString("z")
	got, err := tab.Get(0)
	if err != nil || got[0].Int() != 1 || got[1].Str() != "a" {
		t.Fatalf("Get(0) after overwriting the caller's row = %v, %v", got, err)
	}
	if row, _, _ := tab.Scan().Next(); row[0].Int() != 1 || row[1].Str() != "a" {
		t.Fatalf("Scan after overwriting the caller's row = %v", row)
	}

	if cap(got) != len(got) {
		t.Errorf("Get returned cap %d for a %d-datum row", cap(got), len(got))
	}
	_ = append(got, types.NewInt(-1), types.NewString("x"))
	it := tab.Scan()
	first, _, _ := it.Next()
	_ = append(first, types.NewInt(-2), types.NewString("y"))
	if next, _ := tab.Get(1); next[0].Int() != 2 || next[1].Str() != "b" {
		t.Fatalf("appending to row 0 changed row 1 to %v", next)
	}

	const rows = 1024
	s := tab.Schema()
	str := types.NewString("r") // outside: building a string allocates its box
	allocs := testing.AllocsPerRun(20, func() {
		tab := NewTable("t", s)
		for i := 0; i < rows; i++ {
			tab.MustInsert(schema.Row{types.NewInt(int64(i)), str})
		}
	})
	// One block per blockRows rows, plus the Table and the three growths of
	// its block list (1, 2, 4).
	if want := float64(rows/blockRows + 1 + 3); allocs > want {
		t.Errorf("inserting %d rows made %.0f allocations, want at most %.0f", rows, allocs, want)
	}
}

func TestHeapArityCheck(t *testing.T) {
	tab := newTestTable(t)
	if _, err := tab.Insert(schema.Row{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInsert should panic on arity mismatch")
		}
	}()
	tab.MustInsert(schema.Row{types.NewInt(1)})
}

func TestHeapScan(t *testing.T) {
	tab := newTestTable(t)
	for i := 0; i < 5; i++ {
		tab.MustInsert(schema.Row{types.NewInt(int64(i)), types.NewString("r")})
	}
	it := tab.Scan()
	var got []int64
	for {
		row, rid, ok := it.Next()
		if !ok {
			break
		}
		if schema.RID(row[0].Int()) != rid {
			t.Errorf("rid mismatch: %v vs %d", row[0], rid)
		}
		got = append(got, row[0].Int())
	}
	if len(got) != 5 {
		t.Fatalf("scanned %d rows", len(got))
	}
	it.Reset()
	if _, _, ok := it.Next(); !ok {
		t.Error("reset should rewind")
	}
}

func TestBTreeBasic(t *testing.T) {
	tab := newTestTable(t)
	// Insert keys in scrambled order, enough to force multi-level splits.
	n := 2000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		tab.MustInsert(schema.Row{types.NewInt(int64(k)), types.NewString("r")})
	}
	ix, err := NewBTreeIndex("bt", tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Height() < 2 {
		t.Errorf("expected multi-level tree, height=%d", ix.Height())
	}
	if ix.EntryCount() != n {
		t.Errorf("entry count = %d, want %d", ix.EntryCount(), n)
	}
	// Point lookups.
	for _, k := range []int64{0, 1, 999, 1999} {
		rids := ix.Lookup(types.NewInt(k))
		if len(rids) != 1 {
			t.Fatalf("lookup(%d) = %v", k, rids)
		}
		row, _ := tab.Get(rids[0])
		if row[0].Int() != k {
			t.Errorf("lookup(%d) returned row %v", k, row)
		}
	}
	if len(ix.Lookup(types.NewInt(5000))) != 0 {
		t.Error("absent key lookup should be empty")
	}
	if len(ix.Lookup(types.Null)) != 0 {
		t.Error("NULL lookup should be empty")
	}
	// A full scan visits every key in ascending order.
	next := int64(0)
	ix.AscendRange(Bound{}, Bound{}, func(k types.Datum, _ schema.RID) bool {
		if k.Int() != next {
			t.Fatalf("full scan key %v, want %d", k, next)
		}
		next++
		return true
	})
	if next != int64(n) {
		t.Errorf("full scan visited %d keys, want %d", next, n)
	}
}

func TestBTreeDuplicates(t *testing.T) {
	tab := newTestTable(t)
	for i := 0; i < 300; i++ {
		tab.MustInsert(schema.Row{types.NewInt(int64(i % 3)), types.NewString("d")})
	}
	ix, _ := NewBTreeIndex("bt", tab, 0)
	for k := int64(0); k < 3; k++ {
		if got := len(ix.Lookup(types.NewInt(k))); got != 100 {
			t.Errorf("lookup(%d) = %d rids, want 100", k, got)
		}
	}
}

func TestBTreeRangeScan(t *testing.T) {
	tab := newTestTable(t)
	for i := 0; i < 500; i++ {
		tab.MustInsert(schema.Row{types.NewInt(int64(i)), types.NewString("r")})
	}
	ix, _ := NewBTreeIndex("bt", tab, 0)

	collect := func(lo, hi Bound) []int64 {
		var keys []int64
		ix.AscendRange(lo, hi, func(k types.Datum, rid schema.RID) bool {
			keys = append(keys, k.Int())
			return true
		})
		return keys
	}
	v := func(x int64) *types.Datum { d := types.NewInt(x); return &d }

	got := collect(Bound{Value: v(10), Inclusive: true}, Bound{Value: v(15), Inclusive: true})
	if len(got) != 6 || got[0] != 10 || got[5] != 15 {
		t.Errorf("[10,15] = %v", got)
	}
	got = collect(Bound{Value: v(10), Inclusive: false}, Bound{Value: v(15), Inclusive: false})
	if len(got) != 4 || got[0] != 11 || got[3] != 14 {
		t.Errorf("(10,15) = %v", got)
	}
	got = collect(Bound{}, Bound{Value: v(2), Inclusive: true})
	if len(got) != 3 {
		t.Errorf("(-inf,2] = %v", got)
	}
	got = collect(Bound{Value: v(497), Inclusive: true}, Bound{})
	if len(got) != 3 {
		t.Errorf("[497,inf) = %v", got)
	}
	// Ascending order across the whole index.
	all := collect(Bound{}, Bound{})
	if len(all) != 500 || !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Errorf("full scan len=%d sorted=%v", len(all), sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }))
	}
	// Early termination.
	n := 0
	ix.AscendRange(Bound{}, Bound{}, func(types.Datum, schema.RID) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestBTreeStrings(t *testing.T) {
	s := schema.New(schema.Column{Name: "w", Type: types.KindString})
	tab := NewTable("t", s)
	words := []string{"pear", "apple", "mango", "banana", "cherry"}
	for _, w := range words {
		tab.MustInsert(schema.Row{types.NewString(w)})
	}
	ix, _ := NewBTreeIndex("bt", tab, 0)
	var got []string
	ix.AscendRange(Bound{}, Bound{}, func(k types.Datum, _ schema.RID) bool {
		got = append(got, k.Str())
		return true
	})
	if !sort.StringsAreSorted(got) {
		t.Errorf("string keys not sorted: %v", got)
	}
	lo := types.NewString("b")
	hi := types.NewString("d")
	var ranged []string
	ix.AscendRange(Bound{Value: &lo, Inclusive: true}, Bound{Value: &hi, Inclusive: false},
		func(k types.Datum, _ schema.RID) bool {
			ranged = append(ranged, k.Str())
			return true
		})
	if len(ranged) != 2 || ranged[0] != "banana" || ranged[1] != "cherry" {
		t.Errorf("range [b,d) = %v", ranged)
	}
}

func TestBTreeEmpty(t *testing.T) {
	tab := newTestTable(t)
	ix, _ := NewBTreeIndex("bt", tab, 0)
	if n := ix.AscendRange(Bound{}, Bound{}, func(types.Datum, schema.RID) bool { return true }); n != 0 {
		t.Error("empty scan should visit nothing")
	}
	if _, err := NewBTreeIndex("bt", tab, 5); err == nil {
		t.Error("bad ordinal should error")
	}
}

// Property: for random key multisets, a full B+tree ascent returns exactly
// the sorted multiset.
func TestBTreeSortedProperty(t *testing.T) {
	f := func(keys []int16) bool {
		s := schema.New(schema.Column{Name: "k", Type: types.KindInt})
		tab := NewTable("t", s)
		for _, k := range keys {
			tab.MustInsert(schema.Row{types.NewInt(int64(k))})
		}
		ix, err := NewBTreeIndex("bt", tab, 0)
		if err != nil {
			return false
		}
		var got []int64
		ix.AscendRange(Bound{}, Bound{}, func(k types.Datum, _ schema.RID) bool {
			got = append(got, k.Int())
			return true
		})
		want := make([]int64, len(keys))
		for i, k := range keys {
			want[i] = int64(k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Each key's Lookup is a brute-force scan's RIDs, in RID order.
		for _, k := range keys {
			var brute []schema.RID
			for rid, other := range keys {
				if other == k {
					brute = append(brute, schema.RID(rid))
				}
			}
			if !reflect.DeepEqual(ix.Lookup(types.NewInt(int64(k))), brute) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// NewBTreeIndex packs every leaf once the last key is in: its entries are
// allocated at their exact length, and its keys' rid lists are consecutive,
// capacity-clipped sub-slices of one array.
func TestBTreeLeavesPacked(t *testing.T) {
	tab := newTestTable(t)
	perm := rand.New(rand.NewSource(2)).Perm(3000)
	for _, k := range perm {
		tab.MustInsert(schema.Row{types.NewInt(int64(k % 1100)), types.NewString("r")})
	}
	ix, err := NewBTreeIndex("bt", tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Height() < 2 {
		t.Fatalf("height %d: want a multi-leaf tree", ix.Height())
	}
	ridSize := reflect.TypeOf(schema.RID(0)).Size()
	addr := func(rids []schema.RID) uintptr { return reflect.ValueOf(&rids[0]).Pointer() }
	leaves := 0
	for l := ix.root.firstLeaf(); l != nil; l = l.next {
		leaves++
		if len(l.entries) != cap(l.entries) {
			t.Fatalf("leaf %d: %d entries in a capacity of %d", leaves, len(l.entries), cap(l.entries))
		}
		for i, e := range l.entries {
			if len(e.rids) != cap(e.rids) {
				t.Fatalf("leaf %d key %v: %d rids in a capacity of %d", leaves, e.key, len(e.rids), cap(e.rids))
			}
			if i == 0 {
				continue
			}
			prev := l.entries[i-1].rids
			if addr(e.rids) != addr(prev)+uintptr(len(prev))*ridSize {
				t.Fatalf("leaf %d key %v: rid list does not follow the previous key's in one array", leaves, e.key)
			}
		}
	}
	if leaves < 2 {
		t.Fatalf("walked %d leaves, want several", leaves)
	}
	inner := 0
	var walk func(n btreeNode)
	walk = func(n btreeNode) {
		in, ok := n.(*btreeInner)
		if !ok {
			return
		}
		inner++
		if len(in.keys) != cap(in.keys) || len(in.children) != cap(in.children) {
			t.Fatalf("inner node %d: %d keys in a capacity of %d, %d children in %d",
				inner, len(in.keys), cap(in.keys), len(in.children), cap(in.children))
		}
		for _, c := range in.children {
			walk(c)
		}
	}
	walk(ix.root)
	if inner == 0 {
		t.Fatal("walked no inner node")
	}
}

// FuzzBTreeIndex builds an index from a fuzz-chosen key sequence (two bytes a
// key, duplicates likely, a set top bit meaning NULL) and compares Lookup
// and AscendRange under every combination of unbounded, inclusive and
// exclusive bounds with a brute-force scan.
func FuzzBTreeIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0x80, 0, 0, 2}, int16(1), int16(2))
	long := make([]byte, 4000)
	rand.New(rand.NewSource(3)).Read(long)
	f.Add(long, int16(300), int16(2000))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int16) {
		s := schema.New(schema.Column{Name: "k", Type: types.KindInt, Nullable: true})
		tab := NewTable("t", s)
		type pair struct {
			key int64
			rid schema.RID
		}
		var pairs []pair
		for i := 0; i+1 < len(data); i += 2 {
			if data[i]&0x80 != 0 {
				tab.MustInsert(schema.Row{types.Null})
				continue
			}
			k := int64(data[i]&0x0f)<<8 | int64(data[i+1])
			pairs = append(pairs, pair{k, tab.MustInsert(schema.Row{types.NewInt(k)})})
		}
		ix, err := NewBTreeIndex("bt", tab, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ix.EntryCount() != len(pairs) {
			t.Fatalf("EntryCount = %d, want %d", ix.EntryCount(), len(pairs))
		}
		sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].key < pairs[j].key })

		byKey := map[int64][]schema.RID{}
		for _, p := range pairs {
			byKey[p.key] = append(byKey[p.key], p.rid)
		}
		for _, k := range []int64{int64(lo), int64(hi)} {
			if _, ok := byKey[k]; !ok {
				byKey[k] = nil // an absent key's Lookup is empty
			}
		}
		for k, want := range byKey {
			if got := ix.Lookup(types.NewInt(k)); !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(%d) = %v, want %v", k, got, want)
			}
		}

		loD, hiD := types.NewInt(int64(lo)), types.NewInt(int64(hi))
		bounds := func(v *types.Datum) []Bound {
			return []Bound{{}, {Value: v, Inclusive: true}, {Value: v}}
		}
		in := func(k int64, b Bound, above bool) bool {
			if b.Value == nil {
				return true
			}
			c := b.Value.Int()
			if above {
				return k > c || (b.Inclusive && k == c)
			}
			return k < c || (b.Inclusive && k == c)
		}
		for _, lb := range bounds(&loD) {
			for _, hb := range bounds(&hiD) {
				var want []pair
				keys := 0
				for i, p := range pairs {
					if in(p.key, lb, true) && in(p.key, hb, false) {
						want = append(want, p)
						if i == 0 || pairs[i-1].key != p.key || len(want) == 1 {
							keys++
						}
					}
				}
				var got []pair
				visited := ix.AscendRange(lb, hb, func(k types.Datum, rid schema.RID) bool {
					got = append(got, pair{k.Int(), rid})
					return true
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("AscendRange(%+v, %+v) = %v, want %v", lb, hb, got, want)
				}
				if visited != keys {
					t.Fatalf("AscendRange(%+v, %+v) visited %d entries, want %d", lb, hb, visited, keys)
				}
			}
		}
	})
}
