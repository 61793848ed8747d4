package storage

import (
	"fmt"

	"repro/internal/schema"
	"repro/internal/types"
)

// btreeOrder is the maximum number of keys per B+tree node. 64 keeps nodes
// cache-friendly while exercising real multi-level trees on test data.
const btreeOrder = 64

// BTreeIndex is a single-column B+tree supporting equality and range scans.
// Duplicate keys are allowed: each leaf entry carries the list of RIDs whose
// row holds that key. NULL keys are not indexed.
type BTreeIndex struct {
	name   string
	table  *Table
	keyOrd int
	root   btreeNode
	height int
	count  int // indexed (key,rid) pairs
}

// btreeNode is either a *btreeLeaf or a *btreeInner.
type btreeNode interface {
	// insert adds key→rid under this subtree. If the node split, it returns
	// the new right sibling and the key that separates the two.
	insert(key types.Datum, rid schema.RID) (sep types.Datum, right btreeNode, split bool)
	// firstLeafGE returns the leaf and entry position of the first entry with
	// key >= k (or key > k when strict).
	firstLeafGE(k types.Datum, strict bool) (*btreeLeaf, int)
	// firstLeaf returns the leftmost leaf of the subtree.
	firstLeaf() *btreeLeaf
}

type btreeEntry struct {
	key  types.Datum
	rids []schema.RID
}

type btreeLeaf struct {
	entries []btreeEntry
	next    *btreeLeaf
}

type btreeInner struct {
	// keys[i] separates children[i] (keys < keys[i]) from children[i+1].
	keys     []types.Datum
	children []btreeNode
}

// NewBTreeIndex builds a B+tree over one column of a table, indexing every
// current row. An index is built once, over the rows present, and is not
// maintained: rows inserted into the table afterwards are not indexed. Once
// the last key is in, every leaf is packed to its exact size.
func NewBTreeIndex(name string, t *Table, keyOrd int) (*BTreeIndex, error) {
	if keyOrd < 0 || keyOrd >= t.Schema().Len() {
		return nil, fmt.Errorf("storage: key ordinal %d out of range for %s", keyOrd, t.Name())
	}
	ix := &BTreeIndex{name: name, table: t, keyOrd: keyOrd, root: &btreeLeaf{}, height: 1}
	it := t.Scan()
	for {
		row, rid, ok := it.Next()
		if !ok {
			break
		}
		ix.add(row[keyOrd], rid)
	}
	ix.pack()
	return ix, nil
}

// Name returns the index name.
func (ix *BTreeIndex) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *BTreeIndex) Table() *Table { return ix.table }

// KeyOrdinal returns the indexed column ordinal.
func (ix *BTreeIndex) KeyOrdinal() int { return ix.keyOrd }

// Height returns the tree height in levels (1 = a single leaf). The cost
// model charges one page touch per level per probe.
func (ix *BTreeIndex) Height() int { return ix.height }

// EntryCount returns the number of indexed (key,rid) pairs.
func (ix *BTreeIndex) EntryCount() int { return ix.count }

// add inserts key→rid. NULL keys are ignored.
func (ix *BTreeIndex) add(key types.Datum, rid schema.RID) {
	if key.IsNull() {
		return
	}
	sep, right, split := ix.root.insert(key, rid)
	if split {
		ix.root = &btreeInner{keys: []types.Datum{sep}, children: []btreeNode{ix.root, right}}
		ix.height++
	}
	ix.count++
}

// pack reallocates every inner node's keys and children and every leaf's
// entries at their exact length, and copies each leaf's rid lists into one
// array, each key's list a clipped sub-slice of it. Splits happened during
// the inserts, so the tree's shape does not change.
func (ix *BTreeIndex) pack() {
	packInner(ix.root)
	for l := ix.root.firstLeaf(); l != nil; l = l.next {
		n := 0
		for _, e := range l.entries {
			n += len(e.rids)
		}
		rids := make([]schema.RID, 0, n)
		entries := make([]btreeEntry, len(l.entries))
		for i, e := range l.entries {
			start := len(rids)
			rids = append(rids, e.rids...)
			entries[i] = btreeEntry{key: e.key, rids: rids[start:len(rids):len(rids)]}
		}
		l.entries = entries
	}
}

// packInner reallocates the keys and children of every inner node of the
// subtree under n at their exact length.
func packInner(n btreeNode) {
	in, ok := n.(*btreeInner)
	if !ok {
		return
	}
	keys := make([]types.Datum, len(in.keys))
	copy(keys, in.keys)
	children := make([]btreeNode, len(in.children))
	copy(children, in.children)
	in.keys, in.children = keys, children
	for _, c := range children {
		packInner(c)
	}
}

func (l *btreeLeaf) insert(key types.Datum, rid schema.RID) (types.Datum, btreeNode, bool) {
	pos, found := l.find(key)
	if found {
		l.entries[pos].rids = append(l.entries[pos].rids, rid)
		return types.Null, nil, false
	}
	l.entries = append(l.entries, btreeEntry{})
	copy(l.entries[pos+1:], l.entries[pos:])
	l.entries[pos] = btreeEntry{key: key, rids: []schema.RID{rid}}
	if len(l.entries) <= btreeOrder {
		return types.Null, nil, false
	}
	mid := len(l.entries) / 2
	right := &btreeLeaf{entries: append([]btreeEntry(nil), l.entries[mid:]...), next: l.next}
	l.entries = l.entries[:mid]
	l.next = right
	return right.entries[0].key, right, true
}

// find returns the position of the first entry with key >= k, and whether an
// exact match exists there.
func (l *btreeLeaf) find(k types.Datum) (int, bool) {
	lo, hi := 0, len(l.entries)
	for lo < hi {
		m := (lo + hi) / 2
		if l.entries[m].key.MustCompare(k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(l.entries) && l.entries[lo].key.MustCompare(k) == 0
}

func (l *btreeLeaf) firstLeafGE(k types.Datum, strict bool) (*btreeLeaf, int) {
	pos, found := l.find(k)
	if strict && found {
		pos++
	}
	return l, pos
}

func (l *btreeLeaf) firstLeaf() *btreeLeaf { return l }

func (in *btreeInner) childFor(k types.Datum) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		m := (lo + hi) / 2
		if in.keys[m].MustCompare(k) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (in *btreeInner) insert(key types.Datum, rid schema.RID) (types.Datum, btreeNode, bool) {
	ci := in.childFor(key)
	sep, right, split := in.children[ci].insert(key, rid)
	if !split {
		return types.Null, nil, false
	}
	in.keys = append(in.keys, types.Null)
	copy(in.keys[ci+1:], in.keys[ci:])
	in.keys[ci] = sep
	in.children = append(in.children, nil)
	copy(in.children[ci+2:], in.children[ci+1:])
	in.children[ci+1] = right
	if len(in.keys) <= btreeOrder {
		return types.Null, nil, false
	}
	mid := len(in.keys) / 2
	sepUp := in.keys[mid]
	newRight := &btreeInner{
		keys:     append([]types.Datum(nil), in.keys[mid+1:]...),
		children: append([]btreeNode(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid]
	in.children = in.children[:mid+1]
	return sepUp, newRight, true
}

func (in *btreeInner) firstLeafGE(k types.Datum, strict bool) (*btreeLeaf, int) {
	leaf, pos := in.children[in.childFor(k)].firstLeafGE(k, strict)
	// The target position may fall past the end of this leaf; advance.
	for leaf != nil && pos >= len(leaf.entries) {
		leaf, pos = leaf.next, 0
	}
	return leaf, pos
}

func (in *btreeInner) firstLeaf() *btreeLeaf { return in.children[0].firstLeaf() }

// Lookup returns the RIDs of all rows whose key equals k.
func (ix *BTreeIndex) Lookup(k types.Datum) []schema.RID {
	if k.IsNull() {
		return nil
	}
	leaf, pos := ix.root.firstLeafGE(k, false)
	if leaf == nil || pos >= len(leaf.entries) {
		return nil
	}
	if leaf.entries[pos].key.MustCompare(k) != 0 {
		return nil
	}
	return leaf.entries[pos].rids
}

// Bound describes one end of a range scan. A nil Value means unbounded.
type Bound struct {
	Value     *types.Datum
	Inclusive bool
}

// AscendRange visits every (key, rid) pair with lo <= key <= hi (subject to
// bound inclusivity) in ascending key order, calling fn for each rid. fn
// returning false stops the scan. It returns the number of leaf entries
// visited, which the executor charges as index page work.
func (ix *BTreeIndex) AscendRange(lo, hi Bound, fn func(key types.Datum, rid schema.RID) bool) int {
	var leaf *btreeLeaf
	var pos int
	if lo.Value == nil {
		leaf, pos = ix.root.firstLeaf(), 0
		for leaf != nil && pos >= len(leaf.entries) {
			leaf, pos = leaf.next, 0
		}
	} else {
		leaf, pos = ix.root.firstLeafGE(*lo.Value, !lo.Inclusive)
	}
	visited := 0
	for leaf != nil {
		for ; pos < len(leaf.entries); pos++ {
			e := leaf.entries[pos]
			if hi.Value != nil {
				c := e.key.MustCompare(*hi.Value)
				if c > 0 || (c == 0 && !hi.Inclusive) {
					return visited
				}
			}
			visited++
			for _, rid := range e.rids {
				if !fn(e.key, rid) {
					return visited
				}
			}
		}
		leaf, pos = leaf.next, 0
	}
	return visited
}
