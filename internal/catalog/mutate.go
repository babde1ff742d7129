package catalog

import (
	"fmt"

	"nra/internal/index"
	"nra/internal/relation"
	"nra/internal/value"
)

// Mutations are copy-on-write: each produces a NEW *Table version over a
// fresh tuple slice, validates the post-state (types, NOT NULL,
// primary-key uniqueness) and rebuilds the indexes for the new version,
// leaving the input version — and therefore every published snapshot
// that references it — untouched. Readers keep scanning their snapshot's
// version; the new version becomes visible only when a Tx commits it.
// Index rebuilds keep reads index-consistent at O(n) write cost — the
// right trade-off for an analytical engine.

// clone returns a shallow version copy of t: shared rows and index
// structures, private metadata maps. Metadata mutations (constraints,
// indexes, statistics) on the clone never alter the original.
func (t *Table) clone() *Table {
	nn := make(map[string]bool, len(t.NotNull))
	for k, v := range t.NotNull {
		nn[k] = v
	}
	// Lazy index promotion mutates published versions under idxMu, so
	// the copy must hold it too.
	t.idxMu.Lock()
	idx := make(map[string]*index.Index, len(t.indexes))
	for k, v := range t.indexes {
		idx[k] = v
	}
	var lazy map[string][]string
	if len(t.lazyIdx) > 0 {
		lazy = make(map[string][]string, len(t.lazyIdx))
		for k, v := range t.lazyIdx {
			lazy[k] = v
		}
	}
	t.idxMu.Unlock()
	return &Table{
		Name:       t.Name,
		Rel:        t.Rel,
		PK:         t.PK,
		NotNull:    nn,
		indexes:    idx,
		lazyIdx:    lazy,
		stats:      t.stats,
		statsStale: t.statsStale,
		segs:       t.segs, // same rows, still segment-backed
	}
}

// withTuples builds the successor version of t over a new tuple slice:
// fresh relation, rebuilt indexes, statistics marked stale, and the
// backing columnar segment detached — its bytes describe the old rows.
func (t *Table) withTuples(tuples []relation.Tuple) (*Table, error) {
	nt := t.clone()
	nt.segs = nil
	nt.Rel = &relation.Relation{Schema: t.Rel.Schema, Tuples: tuples}
	for key, idx := range nt.indexes {
		fresh, err := index.Build(nt.Rel, idx.Columns())
		if err != nil {
			return nil, err
		}
		nt.indexes[key] = fresh
	}
	nt.statsStale = true
	return nt, nil
}

// insertRows returns a new version with rows (full table width, schema
// order) appended, and the number inserted. On any validation error no
// version is produced. Only the new keys are hashed; the existing rows
// are probed against them with one reused key buffer, so a small insert
// into a large table allocates O(rows inserted), not O(table).
func (t *Table) insertRows(rows [][]value.Value) (*Table, int, error) {
	schema := t.Rel.Schema
	pkIdx := schema.MustColIndex(t.PK)
	fresh := make(map[string]int, len(rows)) // new key -> its row
	staged := make([]relation.Tuple, 0, len(rows))
	for ri, row := range rows {
		if len(row) != len(schema.Cols) {
			return nil, 0, fmt.Errorf("catalog: insert into %s: row %d has %d values, want %d",
				t.Name, ri, len(row), len(schema.Cols))
		}
		for ci, v := range row {
			if err := t.checkCell(schema.Cols[ci], v); err != nil {
				return nil, 0, fmt.Errorf("catalog: insert into %s row %d: %w", t.Name, ri, err)
			}
		}
		pk := row[pkIdx]
		if pk.IsNull() {
			return nil, 0, fmt.Errorf("catalog: insert into %s row %d: NULL primary key", t.Name, ri)
		}
		key := string(pk.AppendKey(nil))
		if _, dup := fresh[key]; dup {
			return nil, 0, fmt.Errorf("catalog: insert into %s row %d: duplicate primary key %s", t.Name, ri, pk)
		}
		fresh[key] = ri
		staged = append(staged, relation.Tuple{Atoms: append([]value.Value(nil), row...)})
	}
	if ri, dup := t.firstExisting(pkIdx, fresh); dup {
		return nil, 0, fmt.Errorf("catalog: insert into %s row %d: duplicate primary key %s", t.Name, ri, rows[ri][pkIdx])
	}
	next := make([]relation.Tuple, 0, t.Rel.Len()+len(staged))
	next = append(next, t.Rel.Tuples...)
	next = append(next, staged...)
	nt, err := t.withTuples(next)
	if err != nil {
		return nil, 0, err
	}
	return nt, len(staged), nil
}

// firstExisting returns the smallest row of fresh (keyed by primary-key
// encoding) whose key some existing row already holds.
func (t *Table) firstExisting(pkIdx int, fresh map[string]int) (int, bool) {
	first := -1
	var key []byte
	for _, tup := range t.Rel.Tuples {
		key = tup.Atoms[pkIdx].AppendKey(key[:0])
		if ri, hit := fresh[string(key)]; hit && (first < 0 || ri < first) {
			first = ri
		}
	}
	return first, first >= 0
}

// deleteByPK returns a new version without the rows whose primary key is
// in keys, and the number removed (missing keys are not an error).
func (t *Table) deleteByPK(keys []value.Value) (*Table, int, error) {
	pkIdx := t.Rel.Schema.MustColIndex(t.PK)
	doomed := make(map[string]bool, len(keys))
	for _, k := range keys {
		if k.IsNull() {
			continue
		}
		doomed[string(k.AppendKey(nil))] = true
	}
	kept := make([]relation.Tuple, 0, t.Rel.Len())
	removed := 0
	var key []byte
	for _, tup := range t.Rel.Tuples {
		key = tup.Atoms[pkIdx].AppendKey(key[:0])
		if doomed[string(key)] {
			removed++
			continue
		}
		kept = append(kept, tup)
	}
	if removed == 0 {
		return t, 0, nil
	}
	nt, err := t.withTuples(kept)
	if err != nil {
		return nil, 0, err
	}
	return nt, removed, nil
}

// applyUpdates returns a new version with the named columns of the rows
// identified by keys rewritten: keys[i]'s row gets vals[i] (parallel to
// cols). The full post-state is validated before the version is
// produced; on error no version exists. Primary-key uniqueness is
// re-checked only when the update writes the key column: otherwise every
// key is unchanged, and the version it derives from already held the
// contract.
func (t *Table) applyUpdates(keys []value.Value, cols []string, vals [][]value.Value) (*Table, int, error) {
	schema := t.Rel.Schema
	pkIdx := schema.MustColIndex(t.PK)
	colIdx := make([]int, len(cols))
	writesPK := false
	for i, c := range cols {
		j := schema.ColIndex(c)
		if j < 0 {
			return nil, 0, fmt.Errorf("catalog: update %s: no column %q", t.Name, c)
		}
		colIdx[i] = j
		writesPK = writesPK || j == pkIdx
	}
	if len(vals) != len(keys) {
		return nil, 0, fmt.Errorf("catalog: update %s: %d value rows for %d keys", t.Name, len(vals), len(keys))
	}
	byKey := make(map[string][]value.Value, len(keys))
	for i, k := range keys {
		if len(vals[i]) != len(cols) {
			return nil, 0, fmt.Errorf("catalog: update %s: row %d has %d values, want %d",
				t.Name, i, len(vals[i]), len(cols))
		}
		byKey[string(k.AppendKey(nil))] = vals[i]
	}

	next := make([]relation.Tuple, len(t.Rel.Tuples))
	updated := 0
	var seen map[string]bool
	if writesPK {
		seen = make(map[string]bool, len(t.Rel.Tuples))
	}
	var key []byte
	for i, tup := range t.Rel.Tuples {
		atoms := tup.Atoms
		key = tup.Atoms[pkIdx].AppendKey(key[:0])
		if newVals, hit := byKey[string(key)]; hit {
			updated++
			atoms = append([]value.Value(nil), tup.Atoms...)
			for vi, j := range colIdx {
				if err := t.checkCell(schema.Cols[j], newVals[vi]); err != nil {
					return nil, 0, fmt.Errorf("catalog: update %s: %w", t.Name, err)
				}
				atoms[j] = newVals[vi]
			}
		}
		next[i] = relation.Tuple{Atoms: atoms}
		if !writesPK {
			continue
		}
		pk := atoms[pkIdx]
		if pk.IsNull() {
			return nil, 0, fmt.Errorf("catalog: update %s: NULL primary key", t.Name)
		}
		pkKey := string(pk.AppendKey(nil))
		if seen[pkKey] {
			return nil, 0, fmt.Errorf("catalog: update %s: duplicate primary key %s", t.Name, pk)
		}
		seen[pkKey] = true
	}
	if updated == 0 {
		return t, 0, nil
	}
	nt, err := t.withTuples(next)
	if err != nil {
		return nil, 0, err
	}
	return nt, updated, nil
}

// checkCell validates one value against a column's declared type and the
// table's NOT NULL constraints.
func (t *Table) checkCell(col relation.Column, v value.Value) error {
	if v.IsNull() {
		if t.NotNull[col.Name] {
			return fmt.Errorf("NULL violates NOT NULL(%s)", col.Name)
		}
		return nil
	}
	ok := true
	switch col.Type {
	case relation.TInt:
		ok = v.Kind() == value.KindInt
	case relation.TFloat:
		ok = v.Kind() == value.KindFloat || v.Kind() == value.KindInt
	case relation.TString:
		ok = v.Kind() == value.KindString
	case relation.TBool:
		ok = v.Kind() == value.KindBool
	}
	if !ok {
		return fmt.Errorf("value %s (%s) does not fit column %s (%s)", v, v.Kind(), col.Name, col.Type)
	}
	return nil
}
