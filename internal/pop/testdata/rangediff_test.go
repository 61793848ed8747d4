package pop

// This file is not compiled in place: it lives under testdata, and
// scripts/plan_range_diff.sh copies it into internal/pop of two checkouts.
// TestDumpPlanTexts writes, in each, every plan TestPlanIdentityGolden
// digests; TestCompareRangeTexts then compares the two dumps.

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDumpPlanTexts writes the full text of every plan the identity golden
// digests to the file $PLAN_TEXTS: a "== key candidates=N" line before each.
func TestDumpPlanTexts(t *testing.T) {
	out := os.Getenv("PLAN_TEXTS")
	if out == "" {
		t.Skip("PLAN_TEXTS names no output file")
	}
	var b strings.Builder
	for _, w := range identityWorkloads(t) {
		lines, texts := identityLines(t, w.cat, w.db, w.names, w.queries)
		for _, l := range lines {
			key := l[:strings.Index(l, " candidates=")]
			cands := l[len(key)+1 : strings.Index(l, " plan=")]
			fmt.Fprintf(&b, "== %s %s\n%s", key, cands, texts[key])
		}
	}
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

var edgeRange = regexp.MustCompile(` v\d+=\[([^,\]]+),([^\]]+)\]`)

// parseB parses a float printed with %b ("4503599627370496p-52", "+Inf").
func parseB(s string) float64 {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f // ±Inf
	}
	i := strings.IndexByte(s, 'p')
	mant, err1 := strconv.ParseInt(s[:i], 10, 64)
	exp, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil {
		panic("not a %b float: " + s)
	}
	return math.Ldexp(float64(mant), exp)
}

// readDump maps each plan key of a TestDumpPlanTexts file to its
// "candidates=N" field and its plan lines.
func readDump(t *testing.T, path string) (keys []string, cands map[string]string, plans map[string][]string) {
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cands, plans = map[string]string{}, map[string][]string{}
	var key string
	for _, l := range strings.Split(strings.TrimSuffix(string(src), "\n"), "\n") {
		if strings.HasPrefix(l, "== ") {
			f := l[3:]
			key = f[:strings.Index(f, " candidates=")]
			cands[key] = f[len(key)+1:]
			keys = append(keys, key)
			continue
		}
		plans[key] = append(plans[key], l)
	}
	return keys, cands, plans
}

// TestCompareRangeTexts compares the dumps $OLD_TEXTS and $NEW_TEXTS: with
// the v<i>=[lo,hi] fields stripped every plan line must be equal, and so must
// every candidates= count. Every edge range that moved must be tighter (lo
// not lower, hi not higher); a looser or shifted one fails. It logs the
// moved edges and their count per workload and strategy.
func TestCompareRangeTexts(t *testing.T) {
	oldPath, newPath := os.Getenv("OLD_TEXTS"), os.Getenv("NEW_TEXTS")
	if oldPath == "" || newPath == "" {
		t.Skip("OLD_TEXTS and NEW_TEXTS name no dumps")
	}
	oldKeys, oldCands, oldPlans := readDump(t, oldPath)
	_, newCands, newPlans := readDump(t, newPath)
	if len(oldKeys) != len(newCands) {
		t.Errorf("%d plans before, %d after", len(oldKeys), len(newCands))
	}
	edges, moved, tighter, looser := 0, 0, 0, 0
	movedBy := map[string]int{}
	var groups []string
	for _, key := range oldKeys {
		f := strings.Fields(key)
		group := f[0] + " " + f[1]
		if _, seen := movedBy[group]; !seen {
			groups = append(groups, group)
			movedBy[group] = 0
		}
		if newCands[key] != oldCands[key] {
			t.Errorf("%s: %s before, %s after", key, oldCands[key], newCands[key])
		}
		op, np := oldPlans[key], newPlans[key]
		if len(op) != len(np) {
			t.Errorf("%s: %d plan lines before, %d after", key, len(op), len(np))
			continue
		}
		for i := range op {
			if edgeRange.ReplaceAllString(op[i], "") != edgeRange.ReplaceAllString(np[i], "") {
				t.Errorf("%s line %d differs beyond its ranges:\n  before %s\n  after  %s", key, i, op[i], np[i])
				continue
			}
			ov, nv := edgeRange.FindAllStringSubmatch(op[i], -1), edgeRange.FindAllStringSubmatch(np[i], -1)
			for k := range ov {
				edges++
				if ov[k][0] == nv[k][0] {
					continue
				}
				moved++
				movedBy[group]++
				olo, ohi, nlo, nhi := parseB(ov[k][1]), parseB(ov[k][2]), parseB(nv[k][1]), parseB(nv[k][2])
				node := strings.Fields(op[i])[0]
				t.Logf("%s %s edge %d: [%g, %g] -> [%g, %g]", key, node, k, olo, ohi, nlo, nhi)
				if nlo >= olo && nhi <= ohi {
					tighter++
				} else {
					looser++
					t.Errorf("%s %s edge %d loosened: [%g, %g] -> [%g, %g]", key, node, k, olo, ohi, nlo, nhi)
				}
			}
		}
	}
	for _, g := range groups {
		t.Logf("%s: %d edges moved", g, movedBy[g])
	}
	t.Logf("%d of %d edges moved: %d tighter, %d looser", moved, edges, tighter, looser)
}
