package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/pop"
)

// reference is the expected result of one kind: the library's answer with
// POP off, the initial plan run to the end with no checkpoint and no
// re-optimization in the way.
type reference struct {
	count int
	rows  []string // rendered and sorted; nil for LIMIT statements
}

// computeReferences runs every kind once through the library with POP off.
// It is not part of set-up time: it exists for checking only. The kinds are
// spread over as many goroutines as there are sessions.
func computeReferences(cat *catalog.Catalog, kinds []kind) ([]reference, error) {
	refs := make([]reference, len(kinds))
	errs := make([]error, len(kinds))
	var wg sync.WaitGroup
	for g := 0; g < numSessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(kinds); i += numSessions {
				refs[i], errs[i] = computeReference(cat, &kinds[i])
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// computeReference runs one kind with POP off.
func computeReference(cat *catalog.Catalog, k *kind) (reference, error) {
	res, err := pop.NewRunner(cat, pop.Options{Enabled: false}).Run(k.query, k.params())
	if err != nil {
		return reference{}, fmt.Errorf("reference %s: %w", k.name, err)
	}
	ref := reference{count: len(res.Rows)}
	if k.query.Limit == 0 {
		ref.rows = renderRows(res)
		sort.Strings(ref.rows)
	}
	return ref, nil
}

// checkRows compares a reply's rows with the reference as sorted multisets.
// A LIMIT statement may legitimately return any qualifying rows, so only its
// count is compared. Sorting the rendered rows pairs them up correctly
// because every statement here lists its grouping columns before its float
// aggregates: two rows differ before a float's last digits can matter.
func checkRows(k *kind, ref reference, r *reply) error {
	if r.rowCount != ref.count {
		return fmt.Errorf("%s: %d rows, reference has %d", k.name, r.rowCount, ref.count)
	}
	if ref.rows == nil {
		return nil
	}
	if len(r.rows) != ref.count {
		return fmt.Errorf("%s: %d rows rendered, reference has %d", k.name, len(r.rows), ref.count)
	}
	got := slices.Clone(r.rows)
	sort.Strings(got)
	for i := range got {
		if !sameRow(got[i], ref.rows[i]) {
			return fmt.Errorf("%s: row %d is %s, reference has %s", k.name, i, got[i], ref.rows[i])
		}
	}
	return nil
}

// sameRow compares two rendered rows field by field; fields that both read
// as floats may differ by 1e-9 relative (a different plan sums in a
// different order).
func sameRow(a, b string) bool {
	if a == b {
		return true
	}
	fa, fb := strings.Fields(a), strings.Fields(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		x, errX := strconv.ParseFloat(strings.Trim(fa[i], "[]"), 64)
		y, errY := strconv.ParseFloat(strings.Trim(fb[i], "[]"), 64)
		if errX != nil || errY != nil || math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}
