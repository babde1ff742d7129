package main

import (
	"fmt"
	"os"
	"time"

	"nra"
	"nra/internal/bench"
	"nra/internal/csvio"
	"nra/internal/value"
	"nra/internal/vfs"
)

// scaleFactor is the TPC-H scale factor of every measured run (orders
// 30 k rows, lineitem ≈ 120 k). The bounds in BENCHMARK.json, the window
// length and every number in the README hold at this size only, so it is
// not an option; -smoke has its own.
const (
	scaleFactor      = 0.02
	smokeScaleFactor = 0.002
)

// nullFraction is the share of NULLs injected into the measure columns.
// With it, and with nothing declared NOT NULL, the pseudo-selection and
// three-valued-logic paths the paper is about are the ones that run.
const nullFraction = 0.01

// dataSeed seeds the TPC-H generator. The instance is the same on every
// run: statement costs follow the data (quantile cut-offs, result sizes),
// and letting them move with --seed put an 11 % spread on latencies that
// repeat within 3 % on one instance. --seed drives everything drawn on
// top of the data: Q1k's key range, the Zipf draws, the writer's keys and
// values.
const dataSeed = 42

// prepared is one generated, analyzed and saved database directory.
type prepared struct {
	dir       string
	userBytes int64 // logical bytes of the rows: the user's data
	diskBytes int64 // segments + manifest as saved
	analyze   time.Duration
	save      time.Duration
}

// generate builds the TPC-H instance for (sf, seed) with the paper's
// index set. Generation is the harness's own work, not the system's, so
// a run does it once however many times it sets up.
func generate(sf float64, seed uint64) (*bench.Env, time.Duration, error) {
	start := time.Now()
	env, err := bench.NewEnv(bench.Config{SF: sf, Runs: 1, Seed: seed, NullFraction: nullFraction})
	if err != nil {
		return nil, 0, fmt.Errorf("generate: %w", err)
	}
	return env, time.Since(start), nil
}

// prepare collects statistics on the generated instance and saves it
// into dir as columnar segments — the state a production nrad is started
// on.
func prepare(env *bench.Env, dir string) (*prepared, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &prepared{dir: dir}
	start := time.Now()
	env.Cat.AnalyzeAll()
	p.analyze = time.Since(start)

	start = time.Now()
	if _, err := csvio.SaveFSAs(vfs.OS, env.Cat.Snapshot(), dir, csvio.FormatColumnar); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	p.save = time.Since(start)

	var err error
	if p.diskBytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	snap := env.Cat.Snapshot()
	for _, name := range snap.Names() {
		t, err := snap.Table(name)
		if err != nil {
			return nil, err
		}
		for _, tup := range t.Rel.Tuples {
			for _, v := range tup.Atoms {
				p.userBytes += logicalBytes(v)
			}
		}
	}
	return p, nil
}

// logicalBytes is the size of a value as the user supplied it: 8 bytes
// for a number, the length of a string, 1 for a boolean, 0 for NULL.
func logicalBytes(v value.Value) int64 {
	switch v.Kind() {
	case value.KindInt, value.KindFloat:
		return 8
	case value.KindString:
		return int64(len(v.Text()))
	case value.KindBool:
		return 1
	}
	return 0
}

// fillExpected computes, for every statement, the row count and row hash
// it must return. The oracle is the unoptimised §4.1 plan
// (nra.NestedOriginal) run in-process on the saved directory: it shares
// neither the service nor the optimised and vectorised operators with
// what is being measured.
func fillExpected(dir string, stmts []*stmt) error {
	db, err := nra.OpenDir(dir)
	if err != nil {
		return fmt.Errorf("oracle: open %s: %w", dir, err)
	}
	for _, s := range stmts {
		res, err := db.QueryWith(s.sql, nra.NestedOriginal)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w\n%s", s.class, err, s.sql)
		}
		s.want = expect{rows: res.NumRows(), hash: rowsHash(res.Rows())}
	}
	return nil
}
