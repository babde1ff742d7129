package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {240, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 240)
	for i := range v {
		v[i] = float64(240 - i) // unsorted on purpose
	}
	if got := percentile(v, 0.95); got != 228 {
		t.Errorf("p95 of 1..240 = %g, want 228 (12 samples beyond)", got)
	}
	if got := percentile(v, 1); got != 240 {
		t.Errorf("p100 = %g, want 240", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestClassMedian(t *testing.T) {
	// A pooled median of this mix is 3 or 100 depending on one sample; the
	// mean of the class medians is not.
	got := classMedian(map[string][]float64{"fast": {1, 2, 3}, "slow": {100, 110, 120}})
	if got != 56 {
		t.Errorf("classMedian = %g, want (2+110)/2", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out of the parent
		{ID: 5, Parent: 3, Name: "d", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 30, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["parent"] != 40 || byName["b"] != 20 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestRowHash(t *testing.T) {
	oracle := [][]any{{int64(1), "a", nil}, {2.5, "b", true}}
	var wire [][]any
	if err := json.Unmarshal([]byte(`[[2.5,"b",true],[1,"a",null]]`), &wire); err != nil {
		t.Fatal(err)
	}
	if rowsHash(oracle) != rowsHash(wire) {
		t.Error("the same rows in another order, int64 against JSON number, hash differently")
	}
	wire[0][1] = "c"
	if rowsHash(oracle) == rowsHash(wire) {
		t.Error("different rows hash the same")
	}
	if rowHash([]any{"ab", "c"}) == rowHash([]any{"a", "bc"}) {
		t.Error("cell boundaries do not enter the hash")
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"latency_p50_ms", "sql.parse_us", "a", "9x", "nested-join"} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "é", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Paths[0] != "benchmark" || len(spec.Workloads) != 4 {
		t.Errorf("unexpected spec: paths %v, %d workloads", spec.Paths, len(spec.Workloads))
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json declares no setup_s metric in seconds, lower is better")
	}
}

// TestMovesCoverPerLayer: every per-layer metric names the end-to-end
// metric and workload it should move, and only declared ones.
func TestMovesCoverPerLayer(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	first := spec.PerLayer[0].Name
	good := spec.moves[first]
	for name, bad := range map[string][]target{
		"no target":         nil,
		"undeclared metric": {{Metric: "latency_p42_ms", Workload: wlShortStmt}},
		"unknown workload":  {{Metric: "latency_p50_ms", Workload: "nightly"}},
		"per-layer target":  {{Metric: spec.PerLayer[1].Name, Workload: wlShortStmt}},
	} {
		spec.moves[first] = bad
		if err := spec.validateMoves(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	spec.moves[first] = good
	spec.moves["not.declared"] = good
	if err := spec.validateMoves(); err == nil {
		t.Error("an entry for an undeclared per-layer metric was accepted")
	}
}

func TestStampRefusesUndeclaredAndUnmeasured(t *testing.T) {
	declared := []metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	if _, err := stamp(declared, map[string]float64{"a": 1, "b": 2}); err != nil {
		t.Errorf("exact names refused: %v", err)
	}
	if _, err := stamp(declared, map[string]float64{"a": 1}); err == nil {
		t.Error("a declared but unmeasured metric passed")
	}
	if _, err := stamp(declared, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("a measured but undeclared metric passed")
	}
}

// TestGeneratorsDeterministic: the statement set, each session's draws
// and the writer's statements are functions of the seed alone.
func TestGeneratorsDeterministic(t *testing.T) {
	env, _, err := generate(0.002, dataSeed)
	if err != nil {
		t.Fatal(err)
	}
	draws := func(name string, seed uint64) []string {
		w, err := newWorkload(name, env, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for session := 0; session < 2; session++ {
			rd := w.reader(seed, session)
			for i := 0; i < 200; i++ {
				op := rd.draw()
				out = append(out, op.prep+"|"+op.st.sql)
			}
		}
		wr := newWriter(seed, w.ordersRows, w.customers)
		for i := 0; i < 200; i++ {
			op := wr.draw()
			wr.ack(op)
			out = append(out, op.sql)
		}
		for _, op := range traceOps(w, seed, 1) {
			if op.read != nil {
				out = append(out, op.read.st.class)
			}
		}
		return out
	}
	for _, name := range []string{wlNestedJoin, wlWideResult, wlShortStmt, wlMixedDML} {
		a, b, c := draws(name, 7), draws(name, 7), draws(name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same operations", name)
		}
	}

	// The short-statement texts are all distinct (each is its own
	// plan-cache key) and the Zipf draw has a head: the most frequent
	// statement is drawn far more often than 1 in 2048.
	w, err := newWorkload(wlShortStmt, env, 1)
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]bool{}
	for _, s := range w.stmts {
		texts[s.sql] = true
	}
	if len(texts) != shortDistinct {
		t.Errorf("%d distinct short statements, want %d", len(texts), shortDistinct)
	}
	counts, runs := map[*stmt]int{}, 0
	rd := w.reader(1, 0)
	for i := 0; i < 20000; i++ {
		op := rd.draw()
		if op.prep != "" {
			runs++
			continue
		}
		counts[op.st]++
	}
	top := 0
	for _, n := range counts {
		top = max(top, n)
	}
	if top < 1000 || len(counts) < 500 {
		t.Errorf("Zipf draw: top statement %d of 20000, %d distinct — want a heavy head and a long tail", top, len(counts))
	}
	if share := float64(runs) / 20000; math.Abs(share-runShare) > 0.02 {
		t.Errorf("prepared-run share %.3f, want %.2f", share, runShare)
	}
}

// smokeConfig is the -smoke configuration with a private build directory.
func smokeConfig(t *testing.T) (runConfig, *procs) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{
		root: root, buildDir: smokeBuildDir, outDir: t.TempDir(), spec: spec,
		seed: 5, seconds: float64(spec.RunSeconds),
	}.smoke()
	ps := newProcs(t.TempDir())
	t.Cleanup(ps.stop)
	return cfg, ps
}

// smokeBuildDir holds the nrad binary the smoke tests share.
var smokeBuildDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nrabench-test-")
	if err != nil {
		panic(err)
	}
	smokeBuildDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmokeNamesMatchSpec drives a real nrad subprocess through every
// workload in both modes at smoke scale and checks that the metric names
// printed are exactly the ones BENCHMARK.json declares, and that every
// operation was answered correctly.
func TestSmokeNamesMatchSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("launches nrad subprocesses")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildNrad(root, smokeBuildDir); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			t.Run(w.Name+map[bool]string{false: "/e2e", true: "/trace"}[traced], func(t *testing.T) {
				t.Parallel()
				cfg, ps := smokeConfig(t)
				cfg.workload = w.Name
				res, err := runOnce(cfg, ps, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got, want []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				for _, m := range declared {
					want = append(want, m.Name)
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("printed metric names %v, declared %v", got, want)
				}
				if !traced {
					for name, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %g, must never be 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

// TestCorruptHashFailsRun: a wrong expected hash must fail the run and
// name the statement.
func TestCorruptHashFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("launches nrad subprocesses")
	}
	t.Parallel()
	cfg, ps := smokeConfig(t)
	cfg.workload, cfg.corrupt = wlNestedJoin, "fig6"
	res, err := runOnce(cfg, ps, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted hash went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.failures) == 0 || !strings.Contains(res.failures[0], "fig6") || !strings.Contains(res.failures[0], "hash") {
		t.Errorf("failure does not name the statement: %v", res.failures)
	}
}

func TestTraceFileName(t *testing.T) {
	rec := newRecorder()
	rec.end(rec.begin("request", 0, 1))
	dir := t.TempDir()
	path, err := rec.write(dir, "x")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "trace-x.json"); path != want {
		t.Errorf("trace written to %s, want %s", path, want)
	}
	raw, err := os.ReadFile(path)
	var spans []span
	if err != nil || json.Unmarshal(raw, &spans) != nil || len(spans) != 1 || spans[0].Name != "request" {
		t.Errorf("trace file does not hold the recorded span: %s %v", raw, err)
	}
}
