package types

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// fnvOf is HashFold's oracle: the FNV-64a hash, through hash/fnv, of each
// datum's byte stream in order — its kind byte, then a string's bytes, or
// the int64 payload little-endian (an int, bool, date, or a float's bits),
// or nothing for NULL.
func fnvOf(datums ...Datum) uint64 {
	h := fnv.New64a()
	for _, d := range datums {
		d := ref(d)
		h.Write([]byte{byte(d.kind)})
		switch d.kind {
		case KindNull:
		case KindString:
			h.Write([]byte(d.s))
		default:
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(d.i)))
		}
	}
	return h.Sum64()
}

// TestHashFoldMatchesFNV pins HashFold to hash/fnv: for any datum sequence,
// chaining HashFold from HashSeed must produce exactly the value of writing
// the datums' kind and payload bytes through fnv.New64a. Hash values feed no
// persisted state, but keeping them identical keeps hash-table
// iteration-independent invariants easy to audit.
func TestHashFoldMatchesFNV(t *testing.T) {
	datums := []Datum{
		Null,
		NewBool(false),
		NewBool(true),
		NewInt(0),
		NewInt(42),
		NewInt(-1),
		NewInt(1<<62 + 12345),
		NewFloat(0),
		NewFloat(3.14159),
		NewFloat(-2.5e300),
		NewString(""),
		NewString("a"),
		NewString("hello, world"),
		MakeDate(2004, 6, 17),
		NewDate(-400),
	}
	for _, d := range datums {
		if got, want := d.HashFold(HashSeed), fnvOf(d); got != want {
			t.Errorf("%s: HashFold = %#x, want fnv %#x", d, got, want)
		}
	}

	// Composite chains, as hash joins and aggregation use them.
	for i := 0; i < len(datums); i++ {
		for j := 0; j < len(datums); j++ {
			want := fnvOf(datums[i], datums[j])
			got := datums[j].HashFold(datums[i].HashFold(HashSeed))
			if got != want {
				t.Errorf("chain [%s %s]: HashFold = %#x, want %#x", datums[i], datums[j], got, want)
			}
		}
	}
}
