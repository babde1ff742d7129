package nra

import (
	"reflect"
	"strings"
	"testing"

	"nra/internal/stats"
)

// fig6Query is Query 2b (Figure 6's negative-operator shape) at one
// fixed sweep point: part → partsupp (< ALL) → lineitem (NOT EXISTS).
const fig6Query = `select p_partkey, p_name from part
where p_size >= 1 and p_size <= 25
  and p_retailprice < all (select ps_supplycost from partsupp
      where ps_partkey = p_partkey and ps_availqty < 5000
        and not exists (select * from lineitem
            where ps_partkey = l_partkey and ps_suppkey = l_suppkey
              and l_quantity = 25))`

// savedTPCH saves an analyzed TPC-H instance (NULLs on the measure
// columns, so NULL counts are part of what the statistics carry) into
// a fresh directory and returns it.
func savedTPCH(t *testing.T) string {
	t.Helper()
	cfg := TPCHScale(0.002)
	cfg.Seed = 7
	cfg.NullFraction = 0.01
	db, err := OpenTPCH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// tableStats returns each table's current statistics object (nil when
// missing or stale).
func tableStats(t *testing.T, db *DB) map[string]*stats.Table {
	t.Helper()
	out := make(map[string]*stats.Table)
	for _, name := range db.Tables() {
		tbl, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tbl.Stats()
	}
	return out
}

// TestAnalyzeMissingAfterReplay pins that start-up statistics work covers
// only what changed since the checkpoint: after DML on one table is
// replayed from the WAL, AnalyzeMissing collects exactly that table,
// keeps every other table's persisted statistics object, and leaves the
// planner with the plan a full ANALYZE would give.
func TestAnalyzeMissingAfterReplay(t *testing.T) {
	dir := savedTPCH(t)
	live, err := OpenDirDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	live.MustExec("update part set p_retailprice = 1.5 where p_partkey <= 20")
	if err := live.Close(); err != nil { // no checkpoint: the update lives only in the WAL
		t.Fatal(err)
	}

	db, err := OpenDirDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	before := tableStats(t, db)
	if before["part"] != nil {
		t.Fatal("the replayed update must leave part's statistics stale")
	}
	got, err := db.AnalyzeMissing()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"part"}) {
		t.Fatalf("AnalyzeMissing = %v, want [part]", got)
	}
	after := tableStats(t, db)
	for name, ts := range before {
		if name == "part" {
			continue
		}
		if ts == nil || after[name] != ts {
			t.Fatalf("table %s: persisted statistics must be reused as is", name)
		}
	}
	if after["part"] == nil {
		t.Fatal("part must have fresh statistics")
	}
	if again, err := db.AnalyzeMissing(); err != nil || len(again) != 0 {
		t.Fatalf("second AnalyzeMissing = %v, %v; want none", again, err)
	}

	costBased := NestedOptimized.WithCostBased(true)
	reused, err := db.Explain(fig6Query, costBased)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	full, err := db.Explain(fig6Query, costBased)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reused, "[est") {
		t.Fatalf("cost-based EXPLAIN should show estimates:\n%s", reused)
	}
	if reused != full {
		t.Fatalf("plan with reused statistics differs from a full ANALYZE:\n%s\nvs\n%s", reused, full)
	}
}

// TestPersistedStatsMatchFreshCollect pins the premise reuse rests on:
// the statistics a save persisted are exactly what a fresh ANALYZE
// collects on the reloaded, segment-backed tables, so reusing them can
// never change a plan.
func TestPersistedStatsMatchFreshCollect(t *testing.T) {
	db, err := OpenDir(savedTPCH(t))
	if err != nil {
		t.Fatal(err)
	}
	persisted := make(map[string]*stats.TableJSON)
	for name, ts := range tableStats(t, db) {
		tbl, err := db.cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if ts == nil || tbl.Segments() == nil {
			t.Fatalf("table %s: want persisted statistics over a segment-backed table", name)
		}
		persisted[name] = ts.ToJSON()
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}
	for name, ts := range tableStats(t, db) {
		if fresh := ts.ToJSON(); !reflect.DeepEqual(fresh, persisted[name]) {
			t.Fatalf("table %s: persisted statistics differ from a fresh collect:\n%+v\nvs\n%+v", name, persisted[name], fresh)
		}
	}
}
