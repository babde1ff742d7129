// Package csvio persists a catalog to a directory of data files plus a
// JSON manifest (schema, primary keys, NOT NULL constraints, indexes),
// and loads it back. Despite the historical package name it writes two
// formats, selected per save and recorded per table in the manifest:
//
//   - Columnar segments (`<table>.<gen>.seg`, internal/colstore) — the
//     default, native format: per-column encodings, row-group zone maps
//     and a checksummed footer, loaded by binary decode and attached to
//     each table as its lazy column store (see docs/STORAGE.md).
//   - CSV (`<table>.<gen>.csv`) — the import/export path. NULL is
//     encoded as `\N` and string cells beginning with a backslash get
//     one extra leading backslash, so every value — including empty
//     strings and literal `\N` text — survives a round trip. Non-string
//     values render via their SQL text form and parse back under the
//     manifest's column types.
//
// A directory may mix formats table-by-table (e.g. after a partial CSV
// export into a columnar directory); Load dispatches on each manifest
// entry's format field, so migration in either direction is just a
// re-save.
//
// Crash consistency — identical for both formats. A save never
// overwrites live data in place:
//
//  1. Each table's rows are written to a fresh generation-named file
//     via temp file + fsync + rename, so no file a manifest references
//     is ever half-written.
//  2. The manifest — which names the exact files and their CRC32 —
//     is itself written via temp file + fsync + rename. That rename is
//     the commit point: before it, a reader (or a reboot) sees the old
//     manifest and the old generation's files intact; after it, the new.
//  3. Only after the commit point are the previous generation's files
//     deleted. A crash anywhere leaves either the old state or the new
//     state plus, at worst, orphan files that Load sweeps.
//
// The manifest's checkpoint number also fences the write-ahead log (see
// internal/wal): WAL records stamped with an older checkpoint are
// ignored on replay, so a crash between "manifest committed" and "WAL
// truncated" cannot re-apply already-persisted mutations.
package csvio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"nra/internal/catalog"
	"nra/internal/colstore"
	"nra/internal/relation"
	"nra/internal/stats"
	"nra/internal/value"
	"nra/internal/vfs"
)

const (
	manifestName = "catalog.json"
	nullToken    = `\N`
)

// Format selects the on-disk representation of table data files.
type Format int

const (
	// FormatColumnar writes binary columnar segments (internal/colstore)
	// — the native format and the default for every save.
	FormatColumnar Format = iota
	// FormatCSV writes generation-named CSV files — the import/export
	// path, kept for interoperability.
	FormatCSV
)

// String returns the format's name as used on CLI flags.
func (f Format) String() string {
	if f == FormatCSV {
		return "csv"
	}
	return "columnar"
}

// ParseFormat maps a CLI flag value to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "columnar", "colseg", "segment":
		return FormatColumnar, nil
	case "csv":
		return FormatCSV, nil
	}
	return FormatColumnar, fmt.Errorf("csvio: unknown storage format %q (want columnar or csv)", s)
}

// formatTag is the manifest marker for columnar tables; CSV entries
// leave the field empty so pre-columnar manifests load unchanged.
const formatTag = "colseg"

// WALName is the file name of the DML journal kept next to the manifest
// by durable sessions (internal/wal writes it; csvio only needs to know
// it exists to refuse unsafe partial saves and spare it from sweeps).
const WALName = "wal.jsonl"

// Manifest describes the saved database. Checkpoint is the save
// generation: it names the CSV files of this generation and fences WAL
// replay (only records stamped with this checkpoint apply).
type Manifest struct {
	Checkpoint uint64      `json:"checkpoint"`
	Tables     []TableMeta `json:"tables"`
}

// TableMeta is one table's schema and constraints. Stats carries the
// table's last ANALYZE result (fresh statistics only — stale ones are
// not persisted), so a reloaded session plans cost-based immediately.
// File is the rows' CSV file within the directory and CRC its CRC32
// (IEEE) — Load refuses a file whose bytes don't match, so a torn or
// tampered data file can never silently load.
type TableMeta struct {
	Name    string           `json:"name"`
	PK      string           `json:"pk"`
	File    string           `json:"file,omitempty"`
	CRC     string           `json:"crc,omitempty"`
	Format  string           `json:"format,omitempty"` // "" = CSV, "colseg" = columnar segment
	Columns []ColumnMeta     `json:"columns"`
	NotNull []string         `json:"not_null,omitempty"`
	Indexes [][]string       `json:"indexes,omitempty"`
	Stats   *stats.TableJSON `json:"stats,omitempty"`
}

// ColumnMeta is one column's name and declared type.
type ColumnMeta struct {
	Name string `json:"name"`
	Type string `json:"type"` // INTEGER | FLOAT | VARCHAR | BOOLEAN | ANY
}

// Save writes the catalog's current snapshot into dir (created if
// missing) in the native columnar format. When tables is non-empty,
// only the named tables are written; see SaveFS for the exact
// semantics.
func Save(cat *catalog.Catalog, dir string, tables ...string) error {
	_, err := SaveFS(vfs.OS, cat.Snapshot(), dir, tables...)
	return err
}

// SaveCSV is Save in CSV format — the export path for directories that
// other tools should read.
func SaveCSV(cat *catalog.Catalog, dir string, tables ...string) error {
	_, err := SaveFSAs(vfs.OS, cat.Snapshot(), dir, FormatCSV, tables...)
	return err
}

// SaveFS atomically writes snap into dir through fs in the native
// columnar format and returns the new checkpoint number. A full save
// (no table filter) replaces the directory's contents as one commit. A
// partial save writes only the named tables but preserves every other
// table already saved there — the merged manifest keeps their entries
// and files untouched; it is an export convenience and therefore
// refuses to run in a directory with a live WAL, where dropping the
// journal's tables from the commit would corrupt recovery.
func SaveFS(fs vfs.FS, snap *catalog.Snapshot, dir string, tables ...string) (uint64, error) {
	return SaveFSAs(fs, snap, dir, FormatColumnar, tables...)
}

// SaveFSAs is SaveFS with an explicit data-file format. Both formats
// share the same commit protocol — generation-named data files, then
// the manifest rename as the commit point, then orphan sweep — so
// crash-consistency guarantees do not depend on the format chosen.
func SaveFSAs(fs vfs.FS, snap *catalog.Snapshot, dir string, format Format, tables ...string) (uint64, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return 0, err
	}
	prev, err := readManifest(fs, dir) // nil when absent
	if err != nil {
		return 0, fmt.Errorf("csvio: pre-save manifest: %w", err)
	}
	partial := len(tables) > 0
	if partial && fs.Exists(filepath.Join(dir, WALName)) {
		return 0, fmt.Errorf("csvio: partial save into %s: directory has a write-ahead log; save all tables", dir)
	}

	var man Manifest
	man.Checkpoint = 1
	if prev != nil {
		man.Checkpoint = prev.Checkpoint + 1
	}
	want := map[string]bool{}
	for _, t := range tables {
		if _, err := snap.Table(t); err != nil {
			return 0, err
		}
		want[t] = true
	}
	written := map[string]bool{}
	for _, name := range snap.Names() {
		if partial && !want[name] {
			continue
		}
		tbl, err := snap.Table(name)
		if err != nil {
			return 0, err
		}
		meta, err := writeTable(fs, dir, tbl, man.Checkpoint, format)
		if err != nil {
			return 0, err
		}
		man.Tables = append(man.Tables, meta)
		written[name] = true
	}
	// A partial save carries forward the untouched tables of the previous
	// manifest so it can never orphan or clobber them.
	if partial && prev != nil {
		for _, meta := range prev.Tables {
			if !written[meta.Name] {
				man.Tables = append(man.Tables, meta)
			}
		}
		sort.Slice(man.Tables, func(i, j int) bool { return man.Tables[i].Name < man.Tables[j].Name })
	}

	// Commit point: the manifest rename. Everything before it is invisible
	// to Load; everything after it is garbage collection.
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := atomicWrite(fs, dir, manifestName, data); err != nil {
		return 0, err
	}
	sweepOrphans(fs, dir, &man)
	return man.Checkpoint, nil
}

// writeTable persists one table version as `<name>.<gen>.seg` (or
// `.csv`) via temp file + fsync + rename and returns its manifest
// entry. The manifest CRC covers the whole data file in either format;
// columnar segments additionally carry their own footer checksum, so a
// torn segment is caught twice.
func writeTable(fs vfs.FS, dir string, tbl *catalog.Table, gen uint64, format Format) (TableMeta, error) {
	meta := TableMeta{Name: tbl.Name, PK: unqualify(tbl.PK)}
	for _, c := range tbl.Rel.Schema.Cols {
		meta.Columns = append(meta.Columns, ColumnMeta{Name: unqualify(c.Name), Type: c.Type.String()})
	}
	for col, nn := range tbl.NotNull {
		if nn && unqualify(col) != meta.PK {
			meta.NotNull = append(meta.NotNull, unqualify(col))
		}
	}
	sort.Strings(meta.NotNull)
	for _, idx := range tbl.Indexes() {
		cols := make([]string, len(idx))
		for i, c := range idx {
			cols[i] = unqualify(c)
		}
		if len(cols) == 1 && cols[0] == meta.PK {
			continue // recreated automatically
		}
		meta.Indexes = append(meta.Indexes, cols)
	}
	if ts := tbl.Stats(); ts != nil {
		meta.Stats = ts.ToJSON()
	}

	var data []byte
	if format == FormatColumnar {
		seg, err := colstore.Write(tbl.Rel, colstore.WriteOptions{})
		if err != nil {
			return meta, fmt.Errorf("csvio: table %s: %w", tbl.Name, err)
		}
		data = seg
		meta.File = fmt.Sprintf("%s.%d.seg", tbl.Name, gen)
		meta.Format = formatTag
	} else {
		var buf bytes.Buffer
		if err := encodeCSV(&buf, tbl.Rel); err != nil {
			return meta, err
		}
		data = buf.Bytes()
		meta.File = fmt.Sprintf("%s.%d.csv", tbl.Name, gen)
	}
	meta.CRC = fmt.Sprintf("%08x", crc32.ChecksumIEEE(data))
	if err := atomicWrite(fs, dir, meta.File, data); err != nil {
		return meta, err
	}
	return meta, nil
}

// atomicWrite lands data at dir/name via temp file + fsync + rename +
// directory sync, so the file is either absent (old content, for the
// manifest) or complete — never torn.
func atomicWrite(fs vfs.FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// genFile matches generation-named data artifacts (`name.<gen>.seg` and
// `name.<gen>.csv`).
var genFile = regexp.MustCompile(`\.[0-9]+\.(csv|seg)$`)

// sweepOrphans removes save artifacts the manifest no longer references:
// temp files and superseded data-file generations of either format. It
// runs after the commit point, so failures here can only leave extra
// files, never lose data; Load performs the same sweep to converge
// after a crash.
func sweepOrphans(fs vfs.FS, dir string, man *Manifest) {
	live := map[string]bool{manifestName: true, WALName: true}
	for _, meta := range man.Tables {
		live[meta.dataFile()] = true
	}
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		return
	}
	for _, n := range names {
		if live[n] {
			continue
		}
		if strings.HasSuffix(n, ".tmp") || genFile.MatchString(n) {
			fs.Remove(filepath.Join(dir, n))
		}
	}
}

// dataFile returns the manifest entry's data file, defaulting to the
// pre-generation layout (`<name>.csv`) for manifests written before
// checkpointing existed.
func (m *TableMeta) dataFile() string {
	if m.File != "" {
		return m.File
	}
	return m.Name + ".csv"
}

// columnar reports whether the entry's data file is a columnar segment.
func (m *TableMeta) columnar() bool { return m.Format == formatTag }

func encodeCSV(buf *bytes.Buffer, rel *relation.Relation) error {
	w := csv.NewWriter(buf)
	header := make([]string, len(rel.Schema.Cols))
	for i, c := range rel.Schema.Cols {
		header[i] = unqualify(c.Name)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, t := range rel.Tuples {
		for i, v := range t.Atoms {
			switch {
			case v.IsNull():
				row[i] = nullToken
			case v.Kind() == value.KindString && strings.HasPrefix(v.Text(), `\`):
				row[i] = `\` + v.Text() // escape: decoded by stripping one backslash
			default:
				row[i] = v.String()
			}
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// Load reads a directory written by Save into a fresh catalog.
func Load(dir string) (*catalog.Catalog, error) {
	cat, _, err := LoadFS(vfs.OS, dir)
	return cat, err
}

// LoadFS reads a directory written by SaveFS through fs, returning the
// catalog and the manifest's checkpoint number (for WAL replay). It
// verifies every data file against the manifest's CRC and sweeps
// leftover artifacts of an interrupted save, so recovery converges to
// exactly the last committed state.
func LoadFS(fs vfs.FS, dir string) (*catalog.Catalog, uint64, error) {
	man, err := readManifest(fs, dir)
	if err != nil {
		return nil, 0, err
	}
	if man == nil {
		return nil, 0, fmt.Errorf("csvio: %s: no manifest %s", dir, manifestName)
	}
	sweepOrphans(fs, dir, man)
	cat := catalog.New()
	for _, meta := range man.Tables {
		rel, segs, err := loadTable(fs, dir, meta)
		if err != nil {
			return nil, 0, err
		}
		// A CRC-bearing entry provably round-trips bytes Save wrote from
		// a catalog that already enforced the PK contract, so the load
		// skips re-validation and defers index builds to first use —
		// cold start pays only for parsing/decoding. Legacy entries
		// without a CRC get the full eager validation.
		trusted := meta.CRC != ""
		create := cat.Create
		if trusted {
			create = cat.CreateLoaded
		}
		tbl, err := create(meta.Name, rel, meta.PK)
		if err != nil {
			return nil, 0, err
		}
		if segs != nil {
			// The segment reader becomes this table version's column
			// store: vectorized scans decode columns lazily from it.
			tbl.AttachSegments(segs)
		}
		for _, col := range meta.NotNull {
			if err := tbl.SetNotNull(col); err != nil {
				return nil, 0, err
			}
		}
		for _, idx := range meta.Indexes {
			if trusted {
				err = tbl.DeclareIndex(idx...)
			} else {
				_, err = tbl.CreateIndex(idx...)
			}
			if err != nil {
				return nil, 0, err
			}
		}
		if ts := persistedStats(meta, rel.Len()); ts != nil {
			tbl.SetStats(ts)
		}
	}
	return cat, man.Checkpoint, nil
}

// persistedStats returns the entry's persisted statistics when they can
// describe the loaded rows (see stats.TableJSON.Validate), nil otherwise.
// Statistics are advisory, so bad ones are dropped rather than failing
// the load: the table then reads as never analyzed, and start-up
// re-collects it (catalog.AnalyzeMissing).
func persistedStats(meta TableMeta, rows int) *stats.Table {
	if meta.Stats == nil {
		return nil
	}
	cols := make([]string, len(meta.Columns))
	for i, c := range meta.Columns {
		cols[i] = c.Name
	}
	if meta.Stats.Validate(cols, rows) != nil {
		return nil
	}
	ts, err := stats.FromJSON(meta.Stats)
	if err != nil {
		return nil
	}
	return ts
}

// readManifest returns the parsed manifest, or (nil, nil) when the
// directory has none.
func readManifest(fs vfs.FS, dir string) (*Manifest, error) {
	path := filepath.Join(dir, manifestName)
	if !fs.Exists(path) {
		return nil, nil
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("csvio: bad manifest: %w", err)
	}
	return &man, nil
}

// loadTable reads one manifest entry's data file. For columnar entries
// it also returns the opened segment reader so LoadFS can attach it as
// the table's column store; CSV entries return a nil reader.
func loadTable(fs vfs.FS, dir string, meta TableMeta) (*relation.Relation, *colstore.Reader, error) {
	path := filepath.Join(dir, meta.dataFile())
	raw, err := fs.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("csvio: %w", err)
	}
	if meta.CRC != "" {
		if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw)); got != meta.CRC {
			return nil, nil, fmt.Errorf("csvio: %s: checksum %s does not match manifest %s (torn or corrupted file)", path, got, meta.CRC)
		}
	}
	schema, types, err := metaSchema(meta)
	if err != nil {
		return nil, nil, err
	}
	if meta.columnar() {
		rdr, err := colstore.Open(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("csvio: %s: %w", path, err)
		}
		rel, err := rdr.RelationFor(schema)
		if err != nil {
			return nil, nil, fmt.Errorf("csvio: %s: %w", path, err)
		}
		return rel, rdr, nil
	}
	rel, err := decodeCSV(raw, path, meta, schema, types)
	if err != nil {
		return nil, nil, err
	}
	return rel, nil, nil
}

// metaSchema builds the relation schema a manifest entry describes.
func metaSchema(meta TableMeta) (*relation.Schema, []relation.Type, error) {
	schema := &relation.Schema{Name: meta.Name}
	types := make([]relation.Type, len(meta.Columns))
	for i, c := range meta.Columns {
		ty, err := typeByName(c.Type)
		if err != nil {
			return nil, nil, fmt.Errorf("csvio: table %s column %s: %w", meta.Name, c.Name, err)
		}
		types[i] = ty
		schema.Cols = append(schema.Cols, relation.Column{Name: c.Name, Type: ty})
	}
	return schema, types, nil
}

func decodeCSV(raw []byte, path string, meta TableMeta, schema *relation.Schema, types []relation.Type) (*relation.Relation, error) {
	records, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csvio: %s: %w", path, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csvio: %s: missing header", path)
	}
	header := records[0]
	if len(header) != len(meta.Columns) {
		return nil, fmt.Errorf("csvio: %s: header has %d columns, manifest %d", path, len(header), len(meta.Columns))
	}
	for i, c := range meta.Columns {
		if header[i] != c.Name {
			return nil, fmt.Errorf("csvio: %s: column %d is %q, manifest says %q", path, i, header[i], c.Name)
		}
	}
	rel := relation.New(schema)
	for ri, rec := range records[1:] {
		if len(rec) != len(types) {
			return nil, fmt.Errorf("csvio: %s row %d: %d cells, want %d", path, ri+1, len(rec), len(types))
		}
		tup := relation.Tuple{Atoms: make([]value.Value, len(types))}
		for ci, cell := range rec {
			v, err := parseCell(cell, types[ci])
			if err != nil {
				return nil, fmt.Errorf("csvio: %s row %d col %s: %w", path, ri+1, meta.Columns[ci].Name, err)
			}
			tup.Atoms[ci] = v
		}
		rel.Append(tup)
	}
	return rel, nil
}

func parseCell(cell string, t relation.Type) (value.Value, error) {
	if cell == nullToken {
		return value.Null, nil
	}
	if strings.HasPrefix(cell, `\`) {
		cell = cell[1:] // unescape a literal leading backslash
	}
	switch t {
	case relation.TInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return value.Null, err
		}
		return value.Int(i), nil
	case relation.TFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return value.Null, err
		}
		return value.Float(f), nil
	case relation.TBool:
		switch cell {
		case "true":
			return value.Bool(true), nil
		case "false":
			return value.Bool(false), nil
		}
		return value.Null, fmt.Errorf("bad boolean %q", cell)
	default: // VARCHAR / ANY
		return value.Str(cell), nil
	}
}

// typeByName maps a manifest type name to a relation type. Unknown names
// are an error — silently loading such a column as ANY would drop its
// type checking and mis-parse its cells.
func typeByName(name string) (relation.Type, error) {
	switch name {
	case "INTEGER":
		return relation.TInt, nil
	case "FLOAT":
		return relation.TFloat, nil
	case "VARCHAR":
		return relation.TString, nil
	case "BOOLEAN":
		return relation.TBool, nil
	case "ANY":
		return relation.TAny, nil
	}
	return relation.TAny, fmt.Errorf("unknown type %q in manifest", name)
}

func unqualify(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}
