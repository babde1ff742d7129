package csvio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nra/internal/catalog"
	"nra/internal/relation"
	"nra/internal/stats"
	"nra/internal/tpch"
	"nra/internal/value"
)

func sampleCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	rel := relation.MustFromRows("t", []string{"id", "name", "price", "flag"},
		[]any{1, "plain", 1.5, true},
		[]any{2, "", 2.25, false},              // empty string ≠ NULL
		[]any{3, nil, nil, nil},                // NULLs
		[]any{4, "comma, quoted\"", 0.0, true}, // CSV-hostile text
		[]any{5, `\N`, 3.0, false},             // literal backslash-N text
	)
	tbl, err := cat.Create("t", rel, "id")
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetNotNull("flag"); err == nil {
		t.Fatal("flag has NULLs; SetNotNull should fail")
	}
	if _, err := tbl.CreateIndex("name"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("name", "price"); err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := cat.Table("t")
	got, err := back.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Rel.EqualSet(orig.Rel) {
		t.Fatalf("data changed in round trip:\n%s\nvs\n%s", got.Rel, orig.Rel)
	}
	if got.PK != "id" {
		t.Fatalf("pk = %q", got.PK)
	}
	if got.Index("name") == nil || got.Index("name", "price") == nil {
		t.Fatal("indexes lost in round trip")
	}
	// Type preservation: price stays FLOAT even where 0.
	pi := got.Rel.Schema.MustColIndex("price")
	for _, tup := range got.Rel.Tuples {
		if v := tup.Atoms[pi]; !v.IsNull() && v.Kind() != value.KindFloat {
			t.Fatalf("price kind = %v", v.Kind())
		}
	}
}

func TestEmptyStringVsNull(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := back.Table("t")
	ni := tbl.Rel.Schema.MustColIndex("name")
	var sawEmpty, sawNull, sawToken bool
	for _, tup := range tbl.Rel.Tuples {
		v := tup.Atoms[ni]
		switch {
		case v.IsNull():
			sawNull = true
		case v.Kind() == value.KindString && v.Text() == "":
			sawEmpty = true
		case v.Kind() == value.KindString && v.Text() == `\N`:
			sawToken = true
		}
	}
	if !sawEmpty || !sawNull {
		t.Fatalf("empty/NULL distinction lost: empty=%v null=%v", sawEmpty, sawNull)
	}
	// Literal `\N` text must survive via the escaping rule.
	if !sawToken {
		t.Fatal(`literal \N text lost in round trip`)
	}
}

func TestNotNullRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.New()
	rel := relation.MustFromRows("u", []string{"id", "v"}, []any{1, 10}, []any{2, 20})
	tbl, _ := cat.Create("u", rel, "id")
	if err := tbl.SetNotNull("v"); err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Table("u")
	if !got.IsNotNull("v") {
		t.Fatal("NOT NULL constraint lost")
	}
}

func TestSubsetSave(t *testing.T) {
	dir := t.TempDir()
	cat, err := tpch.Generate(tpch.Config{Parts: 5, Suppliers: 2, Customers: 3, Orders: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir, "region", "nation"); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := back.Names(); len(names) != 2 {
		t.Fatalf("subset tables = %v", names)
	}
	if _, err := os.Stat(filepath.Join(dir, "orders.csv")); !os.IsNotExist(err) {
		t.Fatal("orders.csv should not exist")
	}
}

func TestTPCHRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat, err := tpch.Generate(tpch.Config{Parts: 10, Suppliers: 3, Customers: 5, Orders: 20, Seed: 9, NullFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cat.Names() {
		a, _ := cat.Table(name)
		b, err := back.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Rel.EqualSet(b.Rel) {
			t.Fatalf("table %s changed in round trip", name)
		}
	}
}

// TestSaveAfterDrop pins that a full save into the same directory after
// DROP TABLE removes the dropped table from the manifest AND sweeps its
// data file — a reload must not resurrect it.
func TestSaveAfterDrop(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.New()
	if _, err := cat.Create("a", relation.MustFromRows("a", []string{"id"}, []any{1}), "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("b", relation.MustFromRows("b", []string{"id"}, []any{2}), "id"); err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	if err := cat.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if names := back.Names(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("tables after drop+save = %v, want [a]", names)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "b.") {
			t.Fatalf("dropped table's file %s survived the save", e.Name())
		}
	}
}

// TestPartialSavePreserves pins the merge semantics of a partial save
// into an existing directory: unlisted tables keep their manifest
// entries and data files — neither orphaned nor clobbered.
func TestPartialSavePreserves(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.New()
	if _, err := cat.Create("a", relation.MustFromRows("a", []string{"id", "v"}, []any{1, 10}), "id"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Create("b", relation.MustFromRows("b", []string{"id", "v"}, []any{2, 20}), "id"); err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	// Mutate both tables, then save only "a": the directory must keep b's
	// ORIGINAL rows (its file untouched) while a's are refreshed.
	if _, err := cat.Insert("a", [][]value.Value{{value.Int(3), value.Int(30)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Insert("b", [][]value.Value{{value.Int(4), value.Int(40)}}); err != nil {
		t.Fatal(err)
	}
	if err := Save(cat, dir, "a"); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := back.Table("a")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rel.Len() != 2 {
		t.Fatalf("a has %d rows, want 2 (refreshed)", a.Rel.Len())
	}
	b, err := back.Table("b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Rel.Len() != 1 {
		t.Fatalf("b has %d rows, want 1 (pinned at the earlier save)", b.Rel.Len())
	}
}

// TestPartialSaveRefusesWALDir: a directory with a live write-ahead log
// only accepts full saves — a partial commit would desynchronise the
// journal from the manifest.
func TestPartialSaveRefusesWALDir(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, WALName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	err := Save(cat, dir, "t")
	if err == nil || !strings.Contains(err.Error(), "write-ahead log") {
		t.Fatalf("partial save into a WAL directory must be refused, got %v", err)
	}
	if err := Save(cat, dir); err != nil {
		t.Fatalf("full save into a WAL directory must still work: %v", err)
	}
}

// TestUnknownTypeError: an unknown column type in the manifest must fail
// with an error naming the table and the column.
func TestUnknownTypeError(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "catalog.json")
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.Tables[0].Columns[2].Type = "DECIMAL" // price
	raw, err = json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil {
		t.Fatal("unknown column type must fail the load")
	}
	for _, want := range []string{"t", "price", "DECIMAL"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("missing manifest must error")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("bad manifest must error")
	}
	// Manifest referencing a missing CSV.
	dir2 := t.TempDir()
	man := `{"tables":[{"name":"ghost","pk":"id","columns":[{"name":"id","type":"INTEGER"}]}]}`
	if err := os.WriteFile(filepath.Join(dir2, "catalog.json"), []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir2); err == nil {
		t.Fatal("missing table file must error")
	}
}

func TestStatsPersistence(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := cat.AnalyzeTable("t"); err != nil {
		t.Fatal(err)
	}
	cur := func(c *catalog.Catalog) *catalog.Table {
		t.Helper()
		tb, err := c.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := cur(back).Stats()
	if ts == nil {
		t.Fatal("statistics must survive a save/load round trip")
	}
	orig := cur(cat).Stats()
	if ts.Rows != orig.Rows || len(ts.Cols) != len(orig.Cols) {
		t.Fatalf("stats shape changed: %d rows / %d cols, want %d / %d",
			ts.Rows, len(ts.Cols), orig.Rows, len(orig.Cols))
	}
	name := ts.Col("name")
	if name == nil || name.Nulls != orig.Col("name").Nulls || name.NDV != orig.Col("name").NDV {
		t.Fatalf("column stats changed: %+v vs %+v", name, orig.Col("name"))
	}

	// Stale stats must NOT be persisted.
	if _, err := cat.Delete("t", []value.Value{value.Int(5)}); err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := Save(cat, dir2); err != nil {
		t.Fatal(err)
	}
	back2, err := Load(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if cur(back2).Stats() != nil {
		t.Fatal("stale statistics must not survive a save")
	}
}

// TestTamperedCSVRejected pins the manifest checksum: a hand-edited data
// file no longer loads silently — the CRC catches it.
func TestTamperedCSVRejected(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := SaveCSV(cat, dir); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "t.1.csv")
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csv, append(data, "6,extra,9.9,true\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered CSV must fail the checksum, got %v", err)
	}
}

// TestTamperedSegmentRejected is the columnar twin: the manifest CRC
// covers the whole segment file, so flipped bytes fail before the
// segment's own footer checksum is even consulted.
func TestTamperedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "t.1.seg")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("tampered segment must fail the checksum, got %v", err)
	}
}

// TestColumnarLoadAttachesSegments pins that a columnar load leaves the
// table segment-backed (so scans can prune) and that a CSV load does not.
func TestColumnarLoadAttachesSegments(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := back.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	segs := tbl.Segments()
	if segs == nil {
		t.Fatal("columnar load must attach a segment reader")
	}
	if segs.Rows() != tbl.Rel.Len() {
		t.Fatalf("segment rows %d, relation rows %d", segs.Rows(), tbl.Rel.Len())
	}

	csvDir := t.TempDir()
	if err := SaveCSV(cat, csvDir); err != nil {
		t.Fatal(err)
	}
	back, err = Load(csvDir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = back.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Segments() != nil {
		t.Fatal("CSV load must not attach a segment reader")
	}
}

// TestLegacyManifest pins backward compatibility: manifests written
// before checkpointing existed (no file/crc fields) load via the
// `<name>.csv` fallback without checksum verification, and statistics
// describing a different row count are dropped.
func TestLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	cat := sampleCatalog(t)
	if err := cat.AnalyzeTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := SaveCSV(cat, dir); err != nil {
		t.Fatal(err)
	}
	var man Manifest
	raw, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, man.Tables[0].File), filepath.Join(dir, "t.csv")); err != nil {
		t.Fatal(err)
	}
	man.Checkpoint = 0
	man.Tables[0].File = ""
	man.Tables[0].CRC = ""
	raw, err = json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Hand-edit the now-unchecksummed CSV: it loads, but the persisted
	// statistics no longer describe the data and must be dropped.
	csv := filepath.Join(dir, "t.csv")
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csv, append(data, "6,extra,9.9,true\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := back.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rel.Len() != 6 {
		t.Fatalf("legacy load has %d rows, want 6", tbl.Rel.Len())
	}
	if tbl.Stats() != nil {
		t.Fatal("row-count-mismatched statistics must be dropped on load")
	}
}

// TestInvalidPersistedStatsDropped pins that LoadFS trusts a manifest's
// statistics only when they can describe the loaded rows: a hand-edited
// entry loads without statistics (the data itself is intact), and
// start-up's AnalyzeMissing re-collects exactly that table.
func TestInvalidPersistedStatsDropped(t *testing.T) {
	cases := []struct {
		name string
		edit func(*stats.TableJSON)
	}{
		{"renamed column", func(s *stats.TableJSON) { s.Cols[1].Name = "renamed" }},
		{"ndv above rows", func(s *stats.TableJSON) { s.Cols[0].NDV = float64(s.Rows + 1) }},
		{"column rows", func(s *stats.TableJSON) { s.Cols[2].Rows++ }},
		{"nulls above rows", func(s *stats.TableJSON) { s.Cols[2].Nulls = s.Rows + 1 }},
		{"negative histogram count", func(s *stats.TableJSON) { s.Cols[0].Counts[0] = -1 }},
		{"histogram above rows", func(s *stats.TableJSON) { s.Cols[0].Counts[0] += s.Rows }},
		{"dropped column", func(s *stats.TableJSON) { s.Cols = s.Cols[:len(s.Cols)-1] }},
	}
	dir := t.TempDir()
	cat := sampleCatalog(t)
	u := relation.MustFromRows("u", []string{"id", "v"}, []any{1, "x"}, []any{2, nil})
	if _, err := cat.Create("u", u, "id"); err != nil {
		t.Fatal(err)
	}
	cat.AnalyzeAll()
	if err := Save(cat, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "catalog.json")
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Each case edits a fresh copy of the saved manifest in place;
			// the data files stay as saved.
			var man Manifest
			if err := json.Unmarshal(saved, &man); err != nil {
				t.Fatal(err)
			}
			for i := range man.Tables {
				if man.Tables[i].Name == "t" {
					tc.edit(man.Tables[i].Stats)
				}
			}
			raw, err := json.Marshal(man)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			back, err := Load(dir)
			if err != nil {
				t.Fatalf("invalid statistics must not fail the load: %v", err)
			}
			for name, want := range map[string]bool{"t": false, "u": true} {
				tbl, err := back.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				if got := tbl.Stats() != nil; got != want {
					t.Fatalf("table %s has statistics = %v, want %v", name, got, want)
				}
			}
			if got := back.AnalyzeMissing(); len(got) != 1 || got[0] != "t" {
				t.Fatalf("AnalyzeMissing = %v, want [t]", got)
			}
		})
	}
}
