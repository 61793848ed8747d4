package executor

import (
	"math/bits"

	"repro/internal/optimizer"
	"repro/internal/schema"
	"repro/internal/types"
)

// hashTable is the one hash table of the executor, under the hash join and
// hash aggregation: open addressing with linear
// probing over 64-bit key hashes. A slot holds the index of a dense entry,
// and entries are numbered in insertion order. What an entry is belongs to
// the user — a join bucket, an aggregation group — and several entries may
// carry one hash: the user tells them apart by key.
type hashTable struct {
	slots  []int32  // entry index + 1 per slot, 0 when empty; a power of two long
	hashes []uint64 // entry e's hash
	shift  uint     // 64 - log2(len(slots))
}

// reset empties the table and sizes it for hint entries. It keeps the
// arrays of an earlier use that are large enough.
func (t *hashTable) reset(hint int) {
	size := 8
	for size < 2*hint {
		size <<= 1
	}
	if cap(t.hashes) < hint {
		t.hashes = make([]uint64, 0, hint)
	}
	t.hashes = t.hashes[:0]
	t.rehash(size)
}

// rehash re-seats every entry in size slots, a power of two.
func (t *hashTable) rehash(size int) {
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for e, h := range t.hashes {
		p := t.home(h)
		for t.slots[p] != 0 {
			p = (p + 1) & mask
		}
		t.slots[p] = int32(e + 1)
	}
}

// home is the first slot of h's probe sequence. The multiplicative mix reads
// every bit of h, so hashes that agree in their low bits still spread.
func (t *hashTable) home(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> t.shift) }

// next returns the next entry with hash h on the probe sequence from *pos and
// moves *pos past it. At the first empty slot it returns -1 and leaves *pos
// on that slot, which is where insert puts a new entry.
func (t *hashTable) next(h uint64, pos *int) int {
	mask := len(t.slots) - 1
	for {
		s := t.slots[*pos]
		if s == 0 {
			return -1
		}
		*pos = (*pos + 1) & mask
		if t.hashes[s-1] == h {
			return int(s - 1)
		}
	}
}

// find returns the first entry with hash h, or -1.
func (t *hashTable) find(h uint64) int {
	pos := t.home(h)
	return t.next(h, &pos)
}

// insert adds an entry with hash h at pos, the empty slot next stopped on,
// and returns its index. The slots double once half of them are used.
func (t *hashTable) insert(h uint64, pos int) int {
	e := len(t.hashes)
	t.hashes = append(t.hashes, h)
	t.slots[pos] = int32(e + 1)
	if 2*len(t.hashes) > len(t.slots) {
		t.rehash(2 * len(t.slots))
	}
	return e
}

// keyHash folds row's key columns into one hash that agrees with the
// equality its user tests keys with. A join tests Compare, which equates int
// 5, float 5.0 and date 5, and −0.0 with +0.0, so a numeric join key folds as
// its float64 value; grouping tests Equal, which tells kinds apart, so only a
// float's −0 folds as +0. NaN, which Compare calls equal to every number, is
// not covered. A NULL key joins nothing, so for a join it stops the fold and
// reports false; grouping folds NULL like any other value.
func (e *Executor) keyHash(row schema.Row, keys []int, grouping bool) (uint64, bool) {
	h := types.HashSeed
	for _, k := range keys {
		d := row[k]
		switch {
		case !grouping && d.IsNull():
			return 0, false
		case d.Kind() == types.KindFloat || !grouping && d.Kind().Numeric():
			f := d.Float()
			if f == 0 {
				f = 0 // −0 folds as +0
			}
			d = types.NewFloat(f)
		}
		h = d.HashFold(h)
	}
	return h &^ e.hashDrop, true
}

// joinTable is a hash join's build side. An entry is one distinct key hash
// and owns the run rows[bounds[e]:bounds[e+1]] of one row arena, in
// build-input order. Rows whose keys only share a hash share a run, so the
// probe key-checks every candidate. A table's arrays are kept across builds
// (buildMem), and each build reuses those large enough.
type joinTable struct {
	hashTable
	bounds  []int32
	rows    []schema.Row
	entries []int32 // build row i's entry, or -1 for a NULL key; build's scratch
}

// build fills the table from build rows and leaves the rows with a NULL key
// out. It counts each hash's rows, noting each row's entry, lays the runs
// out in entry order and places the rows back to front, so every run keeps
// the input order.
func (t *joinTable) build(e *Executor, keys []int, rows []schema.Row) {
	t.reset(len(rows))
	t.bounds = grow(t.bounds, len(rows)+1)[:0]
	t.entries = grow(t.entries, len(rows))[:0]
	for _, row := range rows {
		i := -1
		if h, ok := e.keyHash(row, keys, false); ok {
			pos := t.home(h)
			if i = t.next(h, &pos); i < 0 {
				i = t.insert(h, pos)
				t.bounds = append(t.bounds, 0)
			}
			t.bounds[i]++
		}
		t.entries = append(t.entries, int32(i))
	}
	end := int32(0)
	for i, c := range t.bounds {
		end += c
		t.bounds[i] = end
	}
	t.bounds = append(t.bounds, end)
	t.rows = grow(t.rows, int(end))
	for i := len(rows) - 1; i >= 0; i-- {
		if k := t.entries[i]; k >= 0 {
			t.bounds[k]--
			t.rows[t.bounds[k]] = rows[i]
		}
	}
}

// grow returns s at length n, on its own array when that holds n elements.
// The elements are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bucket returns the build rows whose key hash is h.
func (t *joinTable) bucket(h uint64) []schema.Row {
	e := t.find(h)
	if e < 0 {
		return nil
	}
	return t.rows[t.bounds[e]:t.bounds[e+1]]
}

// stageBuild charges the grace-hash staging of a hash-join build of rows
// rows: the stages optimizer.HashStages gives the build, and one SpillRow
// per build row and extra stage. It returns what each probe row pays for the
// extra stages.
func (b *base) stageBuild(e *Executor, rows int) float64 {
	pr := &e.Cost
	buildRows := float64(rows)
	stages := optimizer.HashStages(buildRows, len(b.plan.Children[1].Cols), pr.MemoryBytes)
	if stages == 1 {
		return 0
	}
	b.charge(e, (stages-1)*buildRows*pr.SpillRow)
	b.stats.Spilled = true
	return (stages - 1) * pr.SpillRow
}
