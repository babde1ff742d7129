package catalog

import (
	"reflect"
	"testing"

	"nra/internal/relation"
	"nra/internal/stats"
	"nra/internal/value"
)

func sample() *relation.Relation {
	return relation.MustFromRows("emp", []string{"id", "dept", "salary"},
		[]any{1, 10, 100},
		[]any{2, 10, nil},
		[]any{3, 20, 80},
	)
}

func TestCreateAndLookup(t *testing.T) {
	c := New()
	tbl, err := c.Create("emp", sample(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.PK != "id" {
		t.Fatalf("pk = %q", tbl.PK)
	}
	got, err := c.Table("emp")
	if err != nil || got != tbl {
		t.Fatal("lookup failed")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("missing table must error")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "emp" {
		t.Fatalf("names = %v", names)
	}
}

func TestCreateValidation(t *testing.T) {
	c := New()
	if _, err := c.Create("t", sample(), "nope"); err == nil {
		t.Fatal("unknown PK column must error")
	}
	dupPK := relation.MustFromRows("t", []string{"id"}, []any{1}, []any{1})
	if _, err := c.Create("t", dupPK, "id"); err == nil {
		t.Fatal("duplicate PK must error")
	}
	nullPK := relation.MustFromRows("t", []string{"id"}, []any{nil})
	if _, err := c.Create("t", nullPK, "id"); err == nil {
		t.Fatal("NULL PK must error")
	}
	if _, err := c.Create("emp", sample(), "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("emp", sample(), "id"); err == nil {
		t.Fatal("duplicate table must error")
	}
	nested := &relation.Schema{Name: "n",
		Cols: []relation.Column{{Name: "k", Type: relation.TInt}},
		Subs: []relation.Sub{{Name: "g", Schema: relation.NewSchema("g")}}}
	if _, err := c.Create("n", relation.New(nested), "k"); err == nil {
		t.Fatal("nested base table must error")
	}
}

func TestPKIndexAutomatic(t *testing.T) {
	c := New()
	tbl, err := c.Create("emp", sample(), "id")
	if err != nil {
		t.Fatal(err)
	}
	idx := tbl.Index("id")
	if idx == nil {
		t.Fatal("PK index should be created automatically (§5.1)")
	}
	rows := idx.Lookup(value.Int(2))
	if len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("lookup = %v", rows)
	}
}

func TestNotNullConstraint(t *testing.T) {
	c := New()
	tbl, _ := c.Create("emp", sample(), "id")
	if err := tbl.SetNotNull("salary"); err == nil {
		t.Fatal("NULL data must reject NOT NULL")
	}
	if err := tbl.SetNotNull("dept"); err != nil {
		t.Fatal(err)
	}
	if !tbl.IsNotNull("dept") || tbl.IsNotNull("salary") {
		t.Fatal("constraint bookkeeping wrong")
	}
	if !tbl.IsNotNull("id") {
		t.Fatal("PK is implicitly NOT NULL")
	}
	if err := tbl.SetNotNull("nope"); err == nil {
		t.Fatal("unknown column must error")
	}
	if tbl.IsNotNull("nope") {
		t.Fatal("unknown column is not NOT NULL")
	}
}

func TestIndexLifecycle(t *testing.T) {
	c := New()
	tbl, _ := c.Create("emp", sample(), "id")
	idx, err := tbl.CreateIndex("dept")
	if err != nil {
		t.Fatal(err)
	}
	again, err := tbl.CreateIndex("dept")
	if err != nil || again != idx {
		t.Fatal("CreateIndex should be idempotent")
	}
	if _, err := tbl.CreateIndex("dept", "salary"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("nope"); err == nil {
		t.Fatal("unknown column must error")
	}
	lists := tbl.Indexes()
	if len(lists) != 3 { // id (auto), dept, dept+salary
		t.Fatalf("indexes = %v", lists)
	}
	tbl.DropIndex("dept")
	if tbl.Index("dept") != nil {
		t.Fatal("drop failed")
	}
	tbl.DropIndex("nope") // no-op, no panic
	if len(tbl.Indexes()) != 2 {
		t.Fatalf("indexes after drop = %v", tbl.Indexes())
	}
}

func TestIndexSharedWithBaseRows(t *testing.T) {
	c := New()
	tbl, _ := c.Create("emp", sample(), "id")
	idx, _ := tbl.CreateIndex("dept")
	rows := idx.Lookup(value.Int(10))
	if len(rows) != 2 {
		t.Fatalf("dept=10 rows = %v", rows)
	}
	for _, r := range rows {
		if tbl.Rel.Tuples[r].Atoms[1].Int64() != 10 {
			t.Fatal("row ids must address the base relation")
		}
	}
}

func TestMutations(t *testing.T) {
	c := New()
	tbl, err := c.Create("emp", sample(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("dept"); err != nil {
		t.Fatal(err)
	}
	cur := func() *Table {
		t.Helper()
		tb, err := c.Table("emp")
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}

	// Insert commits a new version with maintained indexes.
	n, err := c.Insert("emp", [][]value.Value{
		{value.Int(4), value.Int(10), value.Int(70)},
	})
	if err != nil || n != 1 {
		t.Fatalf("insert: %d %v", n, err)
	}
	if rows := cur().Index("dept").Lookup(value.Int(10)); len(rows) != 3 {
		t.Fatalf("index after insert: %v", rows)
	}
	if tbl.Rel.Len() != 3 {
		t.Fatalf("insert mutated the pre-insert version: %d rows", tbl.Rel.Len())
	}

	// Duplicate PK rejected atomically.
	if _, err := c.Insert("emp", [][]value.Value{
		{value.Int(5), value.Int(30), value.Int(1)},
		{value.Int(4), value.Int(30), value.Int(1)},
	}); err == nil {
		t.Fatal("duplicate PK in batch must fail")
	}
	if cur().Rel.Len() != 4 {
		t.Fatalf("failed batch partially applied: %d rows", cur().Rel.Len())
	}

	// Delete by PK.
	removed, err := c.Delete("emp", []value.Value{value.Int(2), value.Int(99), value.Null})
	if err != nil || removed != 1 {
		t.Fatalf("delete: %d %v", removed, err)
	}
	if rows := cur().Index("id").Lookup(value.Int(2)); rows != nil {
		t.Fatal("index stale after delete")
	}

	// Update, including a PK change.
	updated, err := c.Update("emp",
		[]value.Value{value.Int(3)}, []string{"id", "salary"},
		[][]value.Value{{value.Int(30), value.Int(85)}})
	if err != nil || updated != 1 {
		t.Fatalf("update: %d %v", updated, err)
	}
	if rows := cur().Index("id").Lookup(value.Int(30)); len(rows) != 1 {
		t.Fatal("index stale after PK update")
	}

	// PK collision on update rejected.
	if _, err := c.Update("emp",
		[]value.Value{value.Int(30)}, []string{"id"},
		[][]value.Value{{value.Int(1)}}); err == nil {
		t.Fatal("PK collision must fail")
	}

	// Type violation.
	if _, err := c.Update("emp",
		[]value.Value{value.Int(1)}, []string{"salary"},
		[][]value.Value{{value.Str("lots")}}); err == nil {
		t.Fatal("type violation must fail")
	}
}

func TestStatsLifecycle(t *testing.T) {
	c := New()
	tbl, err := c.Create("emp", sample(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Stats() != nil {
		t.Fatal("fresh table must have no statistics before ANALYZE")
	}
	ts := tbl.Analyze()
	if ts == nil || tbl.Stats() != ts {
		t.Fatal("Analyze must install statistics")
	}
	if ts.Rows != 3 {
		t.Fatalf("rows = %d, want 3", ts.Rows)
	}
	if sal := ts.Col("salary"); sal == nil || sal.Nulls != 1 {
		t.Fatalf("salary stats = %+v, want 1 NULL", sal)
	}

	// Every DML mutation commits a version with stale stats, and stale
	// stats read as absent.
	cur := func() *Table {
		t.Helper()
		tb, err := c.Table("emp")
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	if _, err := c.Insert("emp", [][]value.Value{{value.Int(4), value.Int(30), value.Int(90)}}); err != nil {
		t.Fatal(err)
	}
	if cur().Stats() != nil || !cur().StatsStale() {
		t.Fatal("insert must invalidate statistics")
	}
	if err := c.AnalyzeTable("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("emp", []value.Value{value.Int(4)}, []string{"salary"}, [][]value.Value{{value.Int(95)}}); err != nil {
		t.Fatal(err)
	}
	if cur().Stats() != nil {
		t.Fatal("update must invalidate statistics")
	}
	if err := c.AnalyzeTable("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("emp", []value.Value{value.Int(4)}); err != nil {
		t.Fatal(err)
	}
	if cur().Stats() != nil {
		t.Fatal("delete must invalidate statistics")
	}
	// A no-op delete leaves them fresh.
	if err := c.AnalyzeTable("emp"); err != nil {
		t.Fatal(err)
	}
	ts = cur().Stats()
	if _, err := c.Delete("emp", []value.Value{value.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if cur().Stats() != ts {
		t.Fatal("no-op delete must not invalidate statistics")
	}

	// SetStats installs persisted statistics as fresh.
	tbl2, err := c.Create("emp2", sample(), "id")
	if err != nil {
		t.Fatal(err)
	}
	tbl2.SetStats(ts)
	if tbl2.Stats() != ts {
		t.Fatal("SetStats must install fresh statistics")
	}
}

// TestAnalyzeMissing pins the start-up contract: only tables without
// fresh statistics are collected, the others keep their statistics
// object, and nothing is committed when nothing is missing.
func TestAnalyzeMissing(t *testing.T) {
	c := New()
	for _, name := range []string{"a", "b", "c"} {
		if _, err := c.Create(name, sample(), "id"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AnalyzeTable("b"); err != nil {
		t.Fatal(err)
	}
	statsOf := func(name string) *stats.Table {
		t.Helper()
		tb, err := c.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tb.Stats()
	}
	kept := statsOf("b")
	epoch := c.Epoch()
	if got := c.AnalyzeMissing(); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Fatalf("AnalyzeMissing = %v, want [a c]", got)
	}
	if c.Epoch() != epoch+1 {
		t.Fatalf("epoch %d -> %d, want one commit", epoch, c.Epoch())
	}
	if statsOf("b") != kept {
		t.Fatal("fresh statistics must be kept, not re-collected")
	}
	if statsOf("a") == nil || statsOf("c") == nil {
		t.Fatal("missing statistics must be collected")
	}

	epoch = c.Epoch()
	if got := c.AnalyzeMissing(); len(got) != 0 {
		t.Fatalf("second AnalyzeMissing = %v, want none", got)
	}
	if c.Epoch() != epoch {
		t.Fatal("AnalyzeMissing with nothing missing must not commit")
	}

	// A mutation makes a table's statistics stale, which counts as missing.
	if _, err := c.Delete("c", []value.Value{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if got := c.AnalyzeMissing(); !reflect.DeepEqual(got, []string{"c"}) {
		t.Fatalf("AnalyzeMissing after DML = %v, want [c]", got)
	}
}

// TestUpdateKeyValueMismatch pins that an update whose key and value
// lists differ in length is an error, not an index panic: the WAL hands
// replayed records to Update unchecked.
func TestUpdateKeyValueMismatch(t *testing.T) {
	c := New()
	if _, err := c.Create("emp", sample(), "id"); err != nil {
		t.Fatal(err)
	}
	keys := []value.Value{value.Int(1), value.Int(2)}
	if _, err := c.Update("emp", keys, []string{"salary"}, [][]value.Value{{value.Int(1)}}); err == nil {
		t.Fatal("two keys with one value row must fail")
	}
}

// TestSmallWriteAllocs pins that the key checks of a one-row insert,
// update or delete allocate per row written, not per row in the table:
// a write on a large table must not allocate a key for every existing
// row. (Index rebuilds are O(table) by design; the lazily declared PK
// index here is never built, so it is not part of the count.)
func TestSmallWriteAllocs(t *testing.T) {
	const n = 10000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, i % 7, i}
	}
	c := New()
	if _, err := c.CreateLoaded("emp", relation.MustFromRows("emp", []string{"id", "dept", "salary"}, rows...), "id"); err != nil {
		t.Fatal(err)
	}
	next := int64(n)
	ops := map[string]func(){
		"insert+delete": func() {
			k := value.Int(next)
			next++
			if _, err := c.Insert("emp", [][]value.Value{{k, value.Int(1), value.Int(1)}}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Delete("emp", []value.Value{k}); err != nil {
				t.Fatal(err)
			}
		},
		"update": func() {
			if _, err := c.Update("emp", []value.Value{value.Int(5)}, []string{"salary"}, [][]value.Value{{value.Int(next)}}); err != nil {
				t.Fatal(err)
			}
			next++
		},
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(5, op); allocs > 200 {
			t.Errorf("%s on a %d-row table: %.0f allocations, want O(1) in the table size", name, n, allocs)
		}
	}
}
