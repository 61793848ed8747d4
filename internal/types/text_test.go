package types

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// referenceText is the datum renderer AppendText replaced, kept as its
// oracle: time.Format for dates, strconv.Format* for numbers.
func referenceText(d refDatum) string {
	switch d.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(d.i, 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(uint64(d.i)), 'g', -1, 64)
	case KindString:
		return "'" + d.s + "'"
	case KindDate:
		t := time.Unix(d.i*86400, 0).UTC()
		return t.Format("2006-01-02")
	default:
		return fmt.Sprintf("Datum(kind=%d)", d.kind)
	}
}

// TestAppendTextDates compares every day from about 4700 BC to AD 10180
// with time.Format: the civil-from-days path over years 0-9999 and the
// fallback on both sides of it.
func TestAppendTextDates(t *testing.T) {
	var buf []byte
	for days := int64(-1_000_000); days <= 3_000_000; days++ {
		buf = NewDate(days).AppendText(buf[:0])
		if want := time.Unix(days*86400, 0).UTC().Format("2006-01-02"); string(buf) != want {
			t.Fatalf("day %d: AppendText %q, time.Format %q", days, buf, want)
		}
	}
}

// TestAppendTextMatchesReference covers the values a date sweep does not:
// NULL, bools, integer and float extremes, and strings with quotes.
func TestAppendTextMatchesReference(t *testing.T) {
	cases := []Datum{
		Null, NewBool(true), NewBool(false),
		NewInt(0), NewInt(-7), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)),
		NewFloat(math.NaN()), NewFloat(2.5), NewFloat(1e-9), NewFloat(1e6), NewFloat(1e21),
		NewFloat(math.MaxFloat64), NewFloat(math.SmallestNonzeroFloat64),
		NewString(""), NewString("it's"), NewString(`say "hi"`), NewString("café\n"),
		NewDate(minCivilDay), NewDate(maxCivilDay), NewDate(math.MinInt64), NewDate(math.MaxInt64),
		{p: &box{kind: Kind(99)}},
	}
	for _, d := range cases {
		want := referenceText(ref(d))
		if got := string(d.AppendText([]byte("x"))[1:]); got != want {
			t.Errorf("%s datum: AppendText %q, reference %q", d.Kind(), got, want)
		}
		if got := d.String(); got != want {
			t.Errorf("%s datum: String %q, reference %q", d.Kind(), got, want)
		}
	}
}

// TestAppendTextWholeFloats compares AppendText's whole-number path with
// strconv's shortest 'g' text: every whole number within 10^4 of 0 and of
// ±10^6, where the path ends, a sample of the whole numbers between, each
// with its float64 neighbours on both sides, and ±0, ±Inf and NaN.
func TestAppendTextWholeFloats(t *testing.T) {
	var got, want []byte
	check := func(v float64) {
		got = NewFloat(v).AppendText(got[:0])
		want = strconv.AppendFloat(want[:0], v, 'g', -1, 64)
		if string(got) != string(want) {
			t.Fatalf("%v (bits %#x): AppendText %q, strconv %q", v, math.Float64bits(v), got, want)
		}
	}
	around := func(v float64) {
		for _, v := range []float64{v, -v} {
			check(v)
			check(math.Nextafter(v, math.Inf(-1)))
			check(math.Nextafter(v, math.Inf(1)))
		}
	}
	for n := 0; n <= 10_000; n++ {
		around(float64(n))
		around(float64(1_000_000 - n))
		around(float64(1_000_000 + n))
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 100_000; k++ {
		around(float64(rng.Int63n(1_000_000)))
	}
	for _, v := range []float64{0.5, math.Inf(1), math.NaN()} {
		around(v)
	}
}

// FuzzDatumText compares AppendText with the reference renderer over
// arbitrary kinds and payloads. Random floats almost never land on a whole
// number, so each input also renders float64(i%2e6), a whole number on
// either side of the end of AppendText's whole-number path at 1e6.
func FuzzDatumText(f *testing.F) {
	f.Add(uint8(KindDate), int64(10471), 0.0, "")
	f.Add(uint8(KindDate), int64(-719529), 0.0, "")
	f.Add(uint8(KindFloat), int64(0), 1e21, "")
	f.Add(uint8(KindString), int64(0), 0.0, `it's "quoted"`)
	f.Add(uint8(KindFloat), int64(45), 45.0, "")
	f.Add(uint8(KindFloat), int64(999999), 999999.0, "")
	f.Add(uint8(KindFloat), int64(-1000000), -1e6, "")
	f.Fuzz(func(t *testing.T, kind uint8, i int64, fl float64, s string) {
		d := refDatum{kind: Kind(kind % 7), i: i, s: s}.datum()
		if d.Kind() == KindFloat {
			d = NewFloat(fl)
		}
		for _, d := range []Datum{d, NewFloat(float64(i % 2e6))} {
			if got, want := string(d.AppendText(nil)), referenceText(ref(d)); got != want {
				t.Fatalf("%+v: AppendText %q, reference %q", d, got, want)
			}
		}
	})
}
