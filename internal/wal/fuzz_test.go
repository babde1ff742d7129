package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"testing"

	"nra/internal/catalog"
	"nra/internal/relation"
	"nra/internal/vfs"
)

// journalFS serves one in-memory journal to Replay, which only checks
// that the file exists and reads it; the embedded nil FS is never
// reached.
type journalFS struct {
	vfs.FS
	data []byte
}

func (journalFS) Exists(string) bool                { return true }
func (f journalFS) ReadFile(string) ([]byte, error) { return f.data, nil }

// FuzzReplay feeds arbitrary bytes to recovery as the journal. Replay
// must return records or an error, and applying the records to a small
// catalog must succeed or error — never panic. A successful replay must
// leave the table honouring the contract the engine relies on: rows of
// full width with unique, non-NULL primary keys.
//
// Random bytes almost never carry a valid CRC, so each input is also
// replayed sealed: every JSON line re-framed as a record under its
// correct checksum. That lets the fuzzer reach Apply with arbitrary
// records instead of stopping at the checksum.
//
// The seed corpus (testdata/fuzz/FuzzReplay) holds a journal with one
// insert, update and delete; a torn last line; a CRC mismatch with a
// valid record after it; a record stamped with an older checkpoint; and
// bare insert, update and delete records for the sealed path.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte) {
		replayApply(t, journal)
		replayApply(t, seal(journal))
	})
}

// replayApply replays journal at checkpoint 1 onto a three-row table and
// checks the invariants FuzzReplay states.
func replayApply(t *testing.T, journal []byte) {
	recs, err := Replay(journalFS{data: journal}, "wal.jsonl", 1)
	if err != nil {
		return
	}
	for _, r := range recs {
		if r.Ckpt != 1 {
			t.Fatalf("replay returned a record of checkpoint %d, want 1", r.Ckpt)
		}
	}
	cat := catalog.New()
	rel := relation.MustFromRows("emp", []string{"id", "dept", "salary"},
		[]any{1, 10, 100}, []any{2, 10, nil}, []any{3, 20, 80})
	if _, err := cat.Create("emp", rel, "id"); err != nil {
		t.Fatal(err)
	}
	if err := Apply(cat, recs); err != nil {
		return
	}
	tbl, err := cat.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, tbl.Rel.Len())
	for i, tup := range tbl.Rel.Tuples {
		if len(tup.Atoms) != 3 {
			t.Fatalf("row %d has %d values after replay, want 3", i, len(tup.Atoms))
		}
		pk := tup.Atoms[0]
		key := string(pk.AppendKey(nil))
		if pk.IsNull() || seen[key] {
			t.Fatalf("row %d: primary key %s is NULL or duplicated after replay", i, pk)
		}
		seen[key] = true
	}
}

// seal re-frames every line of data that is valid JSON as a journal
// record under its correct CRC; other lines are dropped.
func seal(data []byte) []byte {
	var out, rec bytes.Buffer
	for _, line := range bytes.Split(data, []byte("\n")) {
		rec.Reset()
		if json.Compact(&rec, line) != nil {
			continue
		}
		fmt.Fprintf(&out, "{\"c\":%d,\"r\":%s}\n", crc32.ChecksumIEEE(rec.Bytes()), rec.Bytes())
	}
	return out.Bytes()
}
