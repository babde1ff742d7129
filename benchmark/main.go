// Command benchmark is the repository's benchmark: four workloads driven
// against a real nrad process from a closed-loop client, with every
// result checked against an in-process oracle, and a traced mode that
// replays each workload serially and times the calls into each layer.
// BENCHMARK.json at the repository root declares the workloads, metric
// names, units and regression bounds; README.md in this directory
// explains what each workload is for.
//
// Usage:
//
//	go run ./benchmark -workload nested-join -seed 1 [-seconds 12] [-trace 1]
//	go run ./benchmark -all [-repeat 3]
//	go run ./benchmark -all -smoke
//
// The last line of standard output of every run is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// result is the object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	failures  []string               // the first few failure messages; printed, not part of the line
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		all      = flag.Bool("all", false, "run every workload")
		seed     = flag.Uint64("seed", 1, "seed of the generated data and statement sequences")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced replay printing the per-layer metrics; 0 = end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "run each workload N times on seeds seed..seed+N-1 and report the spread of every end-to-end metric")
		smoke    = flag.Bool("smoke", false, "tiny run (a tenth of the data, a fiftieth of the window) that only proves the plumbing")
		corrupt  = flag.String("corrupt", "", "corrupt the expected hash of this statement class (the run must then fail)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return usage("unexpected argument %q", flag.Arg(0))
	}

	root, err := repoRoot()
	if err != nil {
		return usage("%v", err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return usage("%v", err)
	}
	var names []string
	switch {
	case *all && *workload != "":
		return usage("-all and -workload exclude each other")
	case *all:
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	default:
		if _, ok := spec.workload(*workload); !ok {
			return usage("unknown workload %q", *workload)
		}
		names = []string{*workload}
	}

	cfg := runConfig{
		root: root, buildDir: filepath.Join(root, ".bench_build"), spec: spec,
		outDir:  filepath.Join(root, "benchmark", "out"),
		seconds: *seconds, sf: scaleFactor, corrupt: *corrupt,
		setupReps: 3, quietWrites: 200, tailWrites: 100, recoverReps: 3, warmOps: 500,
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if *smoke {
		cfg = cfg.smoke()
	}
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		return usage("%v", err)
	}
	scratch, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		return usage("%v", err)
	}

	// Every exit path — return, failed run, panic on this goroutine,
	// Ctrl-C, SIGTERM — goes through ps.stop: no child process and no
	// scratch directory outlives the harness.
	ps := newProcs(scratch)
	defer ps.stop()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		ps.stop()
		os.Exit(130)
	}()

	printHeader(cfg, *seed, *smoke)
	exit := 0
	for _, name := range names {
		cfg.workload = name
		runs := map[string][]float64{}
		for i := 0; i < *repeat; i++ {
			cfg.seed = *seed + uint64(i)
			res, err := runOnce(cfg, ps, *trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", name, cfg.seed, err)
				return 1
			}
			for k, v := range res.Metrics {
				runs[k] = append(runs[k], v.Value)
			}
			if !res.Correct {
				exit = 1
			}
		}
		if *repeat > 1 && *trace != 1 {
			if !printSpread(spec, name, runs) {
				exit = 1
			}
		}
	}
	return exit
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}

// repoRoot finds the module root above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module nra\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("run from inside the nra module: no go.mod above the working directory")
		}
		dir = parent
	}
}

// printHeader states the environment every number below depends on.
func printHeader(cfg runConfig, seed uint64, smoke bool) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# nproc %d, GOMAXPROCS %d, %s, commit %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("# seed %d, sf %g, NULL fraction %g, window %gs, smoke %v\n", seed, cfg.sf, nullFraction, cfg.seconds, smoke)
	fmt.Printf("# nrad -dir <dir> -mem-pool %s (defaults otherwise); sessions: set vectorized on; closed loop, 2 sessions\n", memPool)
	fmt.Printf("# per run: %d set-ups, %d quiet writes (read-only workloads), %d-write WAL tail, %d crash recoveries\n",
		cfg.setupReps, cfg.quietWrites, cfg.tailWrites, cfg.recoverReps)
}

// runOnce runs one workload once, prints its metrics by name with their
// units, and ends with the result line.
func runOnce(cfg runConfig, ps *procs, traced bool) (*result, error) {
	var err error
	if cfg.scratch, err = os.MkdirTemp(ps.scratch, "w-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.scratch)
	run, declared := runE2E, cfg.spec.EndToEnd
	if traced {
		run, declared = runTrace, cfg.spec.PerLayer
	}
	out, err := run(cfg, ps)
	if err != nil {
		return nil, err
	}
	measured, t, notes := out.measured, out.tally, out.notes
	fmt.Printf("## %s seed %d trace %v\n", cfg.workload, cfg.seed, traced)
	res := &result{Attempted: t.attempted, Failed: t.failed, Correct: t.failed == 0 && t.attempted > 0, failures: t.messages}
	for _, msg := range t.messages {
		fmt.Printf("FAILED %s\n", msg)
	}
	if measured != nil {
		if res.Metrics, err = stamp(declared, measured); err != nil {
			return nil, err
		}
		for _, m := range declared {
			fmt.Printf("%-30s %14.4f %s%s\n", m.Name, res.Metrics[m.Name].Value, m.Unit, movesNote(cfg.spec.moves[m.Name]))
		}
	}
	for _, n := range notes {
		fmt.Printf("# %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s\n", line)
	return res, nil
}

// movesNote renders a per-layer metric's predicted effects; empty for an
// end-to-end metric.
func movesNote(targets []target) string {
	var parts []string
	for _, t := range targets {
		parts = append(parts, t.Metric+" on "+t.Workload)
	}
	if len(parts) == 0 {
		return ""
	}
	return "  -> " + strings.Join(parts, ", ")
}

// printSpread reports, per end-to-end metric, the median and quartiles
// over the repeated runs and the interquartile spread against the
// metric's bound, as the benchmark driver computes it. A spread above a
// third of the bound is marked — the driver's advice is to stay below
// that — and one above the bound itself fails: the driver would refuse
// the benchmark. setup_s is exempt from both, as it is there.
func printSpread(spec *benchSpec, workload string, runs map[string][]float64) bool {
	ok := true
	fmt.Printf("## %s: spread over %d runs\n", workload, len(runs[spec.EndToEnd[0].Name]))
	fmt.Printf("%-26s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, m := range spec.EndToEnd {
		v := runs[m.Name]
		if len(v) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(v)
		sp, mark := spread(v), ""
		switch {
		case m.Name == "setup_s":
		case sp > *m.Bound:
			mark, ok = "  NOISY: above its bound", false
		case sp > *m.Bound/3:
			mark = "  above a third of its bound"
		}
		fmt.Printf("%-26s %12.4f %12.4f %12.4f %7.2f%% %7.2f%%%s\n", m.Name, q1, q2, q3, 100*sp, 100**m.Bound, mark)
	}
	return ok
}
