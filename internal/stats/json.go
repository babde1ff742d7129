package stats

import (
	"fmt"
	"strconv"

	"nra/internal/value"
)

// TableJSON is the serialisable form of Table, embedded in the csvio
// manifest so a saved database carries its ANALYZE results.
type TableJSON struct {
	Rows int          `json:"rows"`
	Cols []ColumnJSON `json:"columns"`
}

// ColumnJSON mirrors Column.
type ColumnJSON struct {
	Name   string      `json:"name"`
	Rows   int         `json:"rows"`
	Nulls  int         `json:"nulls,omitempty"`
	NDV    float64     `json:"ndv"`
	Width  float64     `json:"width"`
	Min    *ValueJSON  `json:"min,omitempty"`
	Max    *ValueJSON  `json:"max,omitempty"`
	Bounds []ValueJSON `json:"hist_bounds,omitempty"`
	Counts []int       `json:"hist_counts,omitempty"`
}

// ValueJSON encodes a single value with its kind, so 1 (INTEGER) and "1"
// (VARCHAR) round-trip distinctly.
type ValueJSON struct {
	Kind string `json:"kind"`
	Text string `json:"text"`
}

// ToJSON converts the statistics to their serialisable form.
func (t *Table) ToJSON() *TableJSON {
	out := &TableJSON{Rows: t.Rows}
	for _, c := range t.Cols {
		cj := ColumnJSON{Name: c.Name, Rows: c.Rows, Nulls: c.Nulls, NDV: c.NDV, Width: c.Width}
		cj.Min = encodeValue(c.Min)
		cj.Max = encodeValue(c.Max)
		if c.Hist != nil {
			for _, b := range c.Hist.Bounds {
				cj.Bounds = append(cj.Bounds, *encodeValue(b))
			}
			cj.Counts = append(cj.Counts, c.Hist.Counts...)
		}
		out.Cols = append(out.Cols, cj)
	}
	return out
}

// Validate checks that persisted statistics can describe a table with
// the given columns (unqualified names, in schema order) and row count:
// the same columns in the same order, every column counting the table's
// rows, 0 ≤ Nulls ≤ Rows, 0 ≤ NDV ≤ Rows, and non-negative histogram
// counts that sum to at most Rows. Loaders call it before trusting a
// manifest's statistics, so a hand-edited or mismatched manifest costs a
// re-collect, never a plan built from impossible numbers.
func (tj *TableJSON) Validate(cols []string, rows int) error {
	if tj.Rows != rows {
		return fmt.Errorf("stats: %d rows, table has %d", tj.Rows, rows)
	}
	if len(tj.Cols) != len(cols) {
		return fmt.Errorf("stats: %d columns, table has %d", len(tj.Cols), len(cols))
	}
	for i, cj := range tj.Cols {
		switch {
		case cj.Name != cols[i]:
			return fmt.Errorf("stats: column %d is %q, table has %q", i, cj.Name, cols[i])
		case cj.Rows != rows:
			return fmt.Errorf("stats: column %s counts %d rows, table has %d", cj.Name, cj.Rows, rows)
		case cj.Nulls < 0 || cj.Nulls > rows:
			return fmt.Errorf("stats: column %s: %d NULLs out of %d rows", cj.Name, cj.Nulls, rows)
		case !(cj.NDV >= 0 && cj.NDV <= float64(rows)):
			return fmt.Errorf("stats: column %s: NDV %g out of %d rows", cj.Name, cj.NDV, rows)
		}
		sum := 0
		for _, n := range cj.Counts {
			if n < 0 || n > rows-sum {
				return fmt.Errorf("stats: column %s: histogram count %d is negative or overruns %d rows", cj.Name, n, rows)
			}
			sum += n
		}
	}
	return nil
}

// FromJSON rebuilds Table from its serialised form.
func FromJSON(tj *TableJSON) (*Table, error) {
	t := &Table{Rows: tj.Rows, byName: make(map[string]*Column, len(tj.Cols))}
	for _, cj := range tj.Cols {
		c := &Column{Name: cj.Name, Rows: cj.Rows, Nulls: cj.Nulls, NDV: cj.NDV, Width: cj.Width}
		var err error
		if c.Min, err = decodeValue(cj.Min); err != nil {
			return nil, fmt.Errorf("stats: column %s min: %w", cj.Name, err)
		}
		if c.Max, err = decodeValue(cj.Max); err != nil {
			return nil, fmt.Errorf("stats: column %s max: %w", cj.Name, err)
		}
		if len(cj.Bounds) > 0 {
			if len(cj.Bounds) != len(cj.Counts)+1 {
				return nil, fmt.Errorf("stats: column %s: %d bounds for %d buckets", cj.Name, len(cj.Bounds), len(cj.Counts))
			}
			h := &Histogram{Counts: append([]int(nil), cj.Counts...)}
			for _, b := range cj.Bounds {
				v, err := decodeValue(&b)
				if err != nil {
					return nil, fmt.Errorf("stats: column %s bound: %w", cj.Name, err)
				}
				h.Bounds = append(h.Bounds, v)
			}
			for _, n := range h.Counts {
				h.total += n
			}
			c.Hist = h
		}
		t.Cols = append(t.Cols, c)
		t.byName[c.Name] = c
	}
	return t, nil
}

func encodeValue(v value.Value) *ValueJSON {
	if v.IsNull() {
		return nil
	}
	vj := &ValueJSON{Kind: v.Kind().String()}
	switch v.Kind() {
	case value.KindInt:
		vj.Text = strconv.FormatInt(v.Int64(), 10)
	case value.KindFloat:
		vj.Text = strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case value.KindString:
		vj.Text = v.Text()
	case value.KindBool:
		vj.Text = v.String()
	}
	return vj
}

func decodeValue(vj *ValueJSON) (value.Value, error) {
	if vj == nil {
		return value.Null, nil
	}
	switch vj.Kind {
	case "INTEGER":
		i, err := strconv.ParseInt(vj.Text, 10, 64)
		if err != nil {
			return value.Null, err
		}
		return value.Int(i), nil
	case "FLOAT":
		f, err := strconv.ParseFloat(vj.Text, 64)
		if err != nil {
			return value.Null, err
		}
		return value.Float(f), nil
	case "VARCHAR":
		return value.Str(vj.Text), nil
	case "BOOLEAN":
		b, err := strconv.ParseBool(vj.Text)
		if err != nil {
			return value.Null, err
		}
		return value.Bool(b), nil
	default:
		return value.Null, fmt.Errorf("unknown value kind %q", vj.Kind)
	}
}
