package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// workloadSpec is one workload declaration of BENCHMARK.json.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json. The file is the single declaration
// of workload names, metric names, units and bounds: the harness reads
// it at start-up, stamps units from it, and refuses to print a result
// whose metric names differ from the declared set.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`

	// moves is per_layer_moves.json: for every per-layer metric, the
	// end-to-end metrics it should move and on which workload.
	moves map[string][]target
}

// target is one predicted effect of a per-layer metric: an improvement
// there should show in this end-to-end metric on this workload.
type target struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// movesJSON is the prediction table. It would be a field of each
// per_layer entry of BENCHMARK.json, but the benchmark contract allows
// those entries exactly the keys name, unit and better; so it lives
// beside the harness and loadSpec checks it against the declaration.
//
//go:embed per_layer_moves.json
var movesJSON []byte

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal workload or metric name.
func validName(s string) bool { return nameRE.MatchString(s) }

// loadSpec reads and validates BENCHMARK.json from the repository root.
func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(movesJSON, &s.moves); err != nil {
		return nil, fmt.Errorf("per_layer_moves.json: %w", err)
	}
	if err := s.validateMoves(); err != nil {
		return nil, fmt.Errorf("per_layer_moves.json: %w", err)
	}
	return &s, nil
}

// validateMoves checks that the prediction table covers exactly the
// declared per-layer metrics and names only declared end-to-end metrics
// and workloads.
func (s *benchSpec) validateMoves() error {
	e2e := map[string]bool{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range s.PerLayer {
		targets := s.moves[m.Name]
		if len(targets) == 0 {
			return fmt.Errorf("%s: no end-to-end metric and workload it should move", m.Name)
		}
		for _, t := range targets {
			if _, ok := s.workload(t.Workload); !ok || !e2e[t.Metric] {
				return fmt.Errorf("%s: %s on %s is not a declared end-to-end metric on a declared workload", m.Name, t.Metric, t.Workload)
			}
		}
	}
	if len(s.moves) != len(s.PerLayer) {
		return fmt.Errorf("%d entries for %d declared per-layer metrics", len(s.moves), len(s.PerLayer))
	}
	return nil
}

// validate checks names, units, directions and bounds against the
// benchmark contract's limits.
func (s *benchSpec) validate() error {
	seen := map[string]bool{}
	use := func(kind, name string) error {
		if !validName(name) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		if err := use("workload", w.Name); err != nil {
			return err
		}
	}
	check := func(kind string, ms []metricSpec, bounded bool) error {
		for _, m := range ms {
			if err := use(kind, m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("%s: unit %q is not valid", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("%s: better is %q, want lower or higher", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25):
				return fmt.Errorf("%s: end-to-end bound must be in (0, 0.25]", m.Name)
			case !bounded && m.Bound != nil:
				return fmt.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
		return nil
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if err := check("end-to-end metric", s.EndToEnd, true); err != nil {
		return err
	}
	return check("per-layer metric", s.PerLayer, false)
}

// workload returns the named workload's declaration.
func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp turns measured values into the result's metrics object. It
// fails when the measured names are not exactly the declared ones, so a
// metric cannot be added to the code without being declared, nor
// declared without being measured.
func stamp(declared []metricSpec, measured map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(declared))
	var problems []string
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok {
			problems = append(problems, "declared but not measured: "+m.Name)
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range measured {
		if _, ok := out[name]; !ok {
			problems = append(problems, "measured but not declared: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, fmt.Errorf("metric names differ from BENCHMARK.json: %v", problems)
	}
	return out, nil
}
