package catalog

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/schema"
	"repro/internal/types"
)

// LoadCSV creates a table from CSV data and populates it. The first record
// must be a header of column names. Column types are inferred from the data:
// a column whose every non-empty value parses as an integer is INTEGER, then
// DOUBLE, then DATE (2006-01-02), otherwise VARCHAR. Empty fields load as
// NULL. The whole input is buffered (the engine is in-memory anyway), so
// inference sees every row. Statistics are analyzed before returning.
func (c *Catalog) LoadCSV(tableName string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("catalog: reading CSV for %s: %w", tableName, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("catalog: CSV for %s has no header", tableName)
	}
	header := records[0]
	if len(header) == 0 {
		return nil, fmt.Errorf("catalog: CSV for %s has an empty header", tableName)
	}
	for i, name := range header {
		header[i] = strings.TrimSpace(name)
		if header[i] == "" {
			return nil, fmt.Errorf("catalog: CSV for %s: empty column name at position %d", tableName, i)
		}
	}
	rows := records[1:]
	for n, rec := range rows {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("catalog: CSV for %s: row %d has %d fields, header has %d",
				tableName, n+1, len(rec), len(header))
		}
	}

	cols := make([]schema.Column, len(header))
	for i, name := range header {
		kind, nullable := inferColumnKind(rows, i)
		cols[i] = schema.Column{Name: name, Type: kind, Nullable: nullable}
	}
	t, err := c.CreateTable(tableName, schema.New(cols...))
	if err != nil {
		return nil, err
	}
	// Insert copies the row into the heap, so one buffer serves every line;
	// each distinct string value is built once and shared by its rows.
	row := make(schema.Row, len(cols))
	var in types.Interner
	for n, rec := range rows {
		for i, field := range rec {
			d, err := parseDatum(field, cols[i].Type, &in)
			if err != nil {
				return nil, fmt.Errorf("catalog: CSV for %s: row %d column %s: %w",
					tableName, n+1, cols[i].Name, err)
			}
			row[i] = d
		}
		t.Heap.MustInsert(row)
	}
	if err := c.AnalyzeTable(tableName); err != nil {
		return nil, err
	}
	return t, nil
}

// inferColumnKind picks the narrowest kind every non-empty value fits.
func inferColumnKind(rows [][]string, col int) (types.Kind, bool) {
	canInt, canFloat, canDate := true, true, true
	nullable := false
	sawValue := false
	for _, rec := range rows {
		v := strings.TrimSpace(rec[col])
		if v == "" {
			nullable = true
			continue
		}
		sawValue = true
		if canInt {
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				canInt = false
			}
		}
		if canFloat {
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				canFloat = false
			}
		}
		if canDate {
			if _, err := time.Parse("2006-01-02", v); err != nil {
				canDate = false
			}
		}
	}
	switch {
	case !sawValue:
		return types.KindString, true
	case canInt:
		return types.KindInt, nullable
	case canFloat:
		return types.KindFloat, nullable
	case canDate:
		return types.KindDate, nullable
	default:
		return types.KindString, nullable
	}
}

// parseDatum converts one CSV field to the column's kind; empty is NULL. A
// string comes from in.
func parseDatum(field string, kind types.Kind, in *types.Interner) (types.Datum, error) {
	v := strings.TrimSpace(field)
	if v == "" {
		return types.Null, nil
	}
	switch kind {
	case types.KindInt:
		i, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(i), nil
	case types.KindFloat:
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(f), nil
	case types.KindDate:
		t, err := time.Parse("2006-01-02", v)
		if err != nil {
			return types.Null, err
		}
		return types.MakeDate(t.Year(), t.Month(), t.Day()), nil
	default:
		return in.String(v), nil
	}
}
