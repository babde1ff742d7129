package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nra/internal/obsv"
)

// span is one timed call into a layer, recorded by the harness around
// the call — nothing inside the program is instrumented for it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a request's root span
	Req    int    `json:"req"`    // spans of one replayed statement share it
	Name   string `json:"name"`   // layer.call, e.g. sql.parse, exec.join
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Engine operator spans also carry the operator's work counters.
	RowsIn  int64 `json:"rows_in,omitempty"`
	RowsOut int64 `json:"rows_out,omitempty"`
	Batches int64 `json:"batches,omitempty"`
}

// recorder keeps the spans of a traced run in memory; write stores them
// when the run ends. It is used from one goroutine: the traced replay is
// serial.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(r.t0).Nanoseconds(),
	})
	return len(r.spans)
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed records fn as a span.
func (r *recorder) timed(name string, parent, req int, fn func()) time.Duration {
	id := r.begin(name, parent, req)
	fn()
	return r.end(id)
}

// execKind maps the engine's span kinds onto the operator classes the
// per-layer metrics are reported by.
func execKind(rec *obsv.SpanRecord) string {
	switch rec.Kind {
	case obsv.KindScan:
		return "exec.scan"
	case obsv.KindJoin, obsv.KindGraceJoin:
		return "exec.join"
	case obsv.KindNestLink, obsv.KindChain:
		return "exec.nestlink"
	case obsv.KindSort, obsv.KindExtSort:
		return "exec.sort"
	case obsv.KindPlan:
		if strings.HasPrefix(rec.Op, "finish") {
			return "exec.finish"
		}
	}
	return "exec.other" // planner-level spans: their self time is block reduction and glue
}

// graft copies the engine's own span tree — read through the public
// core.Options.Tracer seam — under the harness span that timed the
// execution. base is that span's start; the engine's offsets are
// relative to its tracer's creation, just before.
func (r *recorder) graft(rec *obsv.SpanRecord, parent, req int, base int64) {
	for _, c := range rec.Children {
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: parent, Req: req, Name: execKind(c),
			Start: base + c.Start.Nanoseconds(), End: base + (c.Start + c.Elapsed).Nanoseconds(),
			RowsIn: c.RowsIn, RowsOut: c.RowsOut, Batches: c.Batches,
		})
		r.graft(c, len(r.spans), req, base)
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap one another
// (parallel workers) or stick out of the parent (clock skew between two
// tracers): the covered part is the union of the child intervals clipped
// to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// write stores the spans as <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	raw, err := json.Marshal(r.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
