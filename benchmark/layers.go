package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"nra"
	"nra/internal/catalog"
	"nra/internal/colstore"
	"nra/internal/core"
	"nra/internal/csvio"
	"nra/internal/exec"
	"nra/internal/obsv"
	"nra/internal/opt"
	"nra/internal/relation"
	"nra/internal/service"
	"nra/internal/sql"
	"nra/internal/vfs"
	"nra/internal/wal"
)

// poolBytes is memPool in bytes, for the in-process replicas of the
// server's configuration.
const poolBytes = 256 << 20

// readEvery is how many writes the traced mixed-dml replay does between
// reads: the serial stand-in for a writer and a reader side by side.
const readEvery = 8

// traceOp is one operation of the traced replay.
type traceOp struct {
	read  *readOp
	write bool // draw the next write from the pass's writer
}

// traceOps is the fixed operation list of a traced run: a function of
// the workload, the seed and --seconds, so every counter repeats.
func traceOps(w *workload, seed uint64, seconds float64) []traceOp {
	n := int(math.Ceil(w.traceOpsPerSec * seconds))
	switch {
	case w.writes:
		n = max(n, readEvery*len(w.stmts)) // every read statement at least once
	case !w.zipf:
		n = max(n, len(w.stmts))
	}
	rd := w.reader(seed, 0)
	var ops []traceOp
	for i := 0; i < n; i++ {
		if w.writes && i%readEvery != readEvery-1 {
			ops = append(ops, traceOp{write: true})
			continue
		}
		op := rd.draw()
		ops = append(ops, traceOp{read: &op})
	}
	return ops
}

// serverStats is the part of GET /v1/stats the per-layer metrics use.
type serverStats struct {
	Admitted, Rejected    int64
	PoolPeak, PoolDenials int64
	PlanCache             nra.PlanCacheStats
}

func fetchStats(srv *server) (serverStats, error) {
	var st serverStats
	resp, err := http.Get("http://" + srv.httpAddr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// snapSink and boxedSink keep timed calls from being optimised away.
var (
	snapSink  *catalog.Snapshot
	boxedSink [][]any
)

var segmentsRE = regexp.MustCompile(`\[segments: (\d+)/(\d+)\]`)

// runTrace replays the workload's statement set serially and times the
// calls into each layer's public functions. One pass goes through a real
// nrad at one client, for the counters only the server keeps and the
// wire overhead; the rest is in-process.
func runTrace(cfg runConfig, ps *procs) (*outcome, error) {
	nradBin, _, err := buildNrad(cfg.root, cfg.buildDir)
	if err != nil {
		return nil, err
	}
	env, _, err := generate(cfg.sf, dataSeed)
	if err != nil {
		return nil, err
	}
	prep, err := prepare(env, filepath.Join(cfg.scratch, "data"))
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"stats.analyze_ms": ms(prep.analyze),
		"csvio.save_ms":    ms(prep.save),
		"csvio.disk_bytes": float64(prep.diskBytes),
	}
	if err := storageLayer(prep.dir, m); err != nil {
		return nil, err
	}
	start := time.Now()
	cat, ckpt, err := csvio.LoadFS(vfs.OS, prep.dir)
	if err != nil {
		return nil, err
	}
	m["csvio.load_ms"] = ms(time.Since(start))
	const snaps = 100_000
	start = time.Now()
	for i := 0; i < snaps; i++ {
		snapSink = cat.Snapshot()
	}
	m["catalog.snapshot_ns"] = float64(time.Since(start).Nanoseconds()) / snaps

	w, err := newWorkload(cfg.workload, env, cfg.seed)
	if err != nil {
		return nil, err
	}
	env = nil
	if err := fillExpected(prep.dir, w.stmts); err != nil {
		return nil, err
	}
	ops := traceOps(w, cfg.seed, cfg.seconds)
	t := &tally{}

	// The in-process replicas load the directory before the wire pass
	// writes to it.
	liveDir := filepath.Join(cfg.scratch, "live")
	if err := copyDir(prep.dir, liveDir); err != nil {
		return nil, err
	}
	var memDB *nra.DB
	if w.writes {
		if memDB, err = nra.OpenDir(prep.dir); err != nil {
			return nil, err
		}
	}

	wireNS, err := wirePass(ps, nradBin, prep.dir, w, ops, cfg.seed, t, m)
	if err != nil {
		return nil, err
	}
	r, err := newReplay(liveDir, cat.Snapshot(), memDB, w)
	if err != nil {
		return nil, err
	}
	defer r.db.Close()
	wr := newWriter(cfg.seed, w.ordersRows, w.customers)
	for i, op := range ops {
		if op.write {
			r.write(i+1, wr, t)
		} else {
			r.read(i+1, *op.read, t)
		}
	}
	if r.reads == 0 {
		return nil, fmt.Errorf("traced replay of %s holds no read", w.name)
	}
	r.report(m)
	if err := r.db.Close(); err != nil {
		return nil, err
	}
	if err := walLayer(liveDir, cfg.scratch, ckpt, wr.userBytes, m); err != nil {
		return nil, err
	}

	traceFile, err := r.rec.write(cfg.outDir, w.name)
	if err != nil {
		return nil, err
	}
	var groups []string
	for g, share := range layerShares(r.rec.spans, wireNS) {
		groups = append(groups, fmt.Sprintf("%s %.1f%%", g, 100*share))
	}
	sort.Strings(groups)
	return &outcome{measured: m, tally: t, notes: []string{
		fmt.Sprintf("%d operations replayed; spans in %s", len(ops), traceFile),
		"time shares: " + strings.Join(groups, ", "),
	}}, nil
}

// wirePass sends the operation list through a real nrad from one client:
// the source of the counters only the server keeps (plan cache,
// admission, pool) — exact at one client — and of the wire overhead,
// whose total it returns in nanoseconds.
func wirePass(ps *procs, nradBin, dir string, w *workload, ops []traceOp, seed uint64, t *tally, m map[string]float64) (float64, error) {
	srv, _, err := ps.launch(nradBin, dir)
	if err != nil {
		return 0, err
	}
	defer srv.kill()
	c, err := openSession(srv, w)
	if err != nil {
		return 0, err
	}
	lat, seen := newLatencies(), map[*stmt]int{}
	wr := newWriter(seed, w.ordersRows, w.customers)
	for _, op := range ops {
		if op.write {
			writeLoop(c, wr, time.Time{}, 1, lat, t)
		} else if !checkedRead(c, *op.read, seen, !w.writes || !op.read.st.volatile, lat, t) {
			break
		}
	}
	c.close()
	st, err := fetchStats(srv)
	if err != nil {
		return 0, err
	}
	lookups := st.PlanCache.Hits + st.PlanCache.Misses + st.PlanCache.Invalidations
	m["plancache.hit_ratio"] = ratio(float64(st.PlanCache.Hits), float64(lookups))
	m["plancache.evictions"] = float64(st.PlanCache.Evictions)
	m["plancache.invalidations"] = float64(st.PlanCache.Invalidations)
	m["service.admitted"] = float64(st.Admitted)
	m["service.rejected"] = float64(st.Rejected)
	m["exec.pool_peak_bytes"] = float64(st.PoolPeak)
	m["exec.pool_denials"] = float64(st.PoolDenials)
	m["service.wire_overhead_us"] = median(lat.wireUS)
	var totalNS float64
	for _, v := range lat.wireUS {
		totalNS += v * 1e3
	}
	return totalNS, nil
}

// replay is the in-process traced pass: replicas of what the server runs
// — the same directory opened durably, a service.Server over it with the
// same pool, a session with vectorized on, and, for the calls below the
// service, the planner options that session resolves to — plus the span
// recorder and the accumulators the per-layer metrics are made from.
type replay struct {
	rec      *recorder
	ctx      context.Context
	db       *nra.DB // durable: its Exec journals to the WAL
	memDB    *nra.DB // in-memory: the catalog's share of a write; nil without writes
	srv      *service.Server
	sess     *service.Session
	strategy nra.Strategy
	opts     core.Options
	snap     *catalog.Snapshot
	checkAll bool // no writer: volatile statements are checked too

	reads                                       int
	parseUS, bindUS, planUS, renderUS, encodeMS []float64
	writeUS                                     map[string][]float64
	qerrs                                       []float64
	tracedNS, untracedNS, resultRows            int64
	mallocs, allocBytes                         uint64
	peakBytes, spills, spillBytes               int64
	segScanned, segTotal                        int64
	explained                                   map[*stmt]bool
}

func newReplay(liveDir string, snap *catalog.Snapshot, memDB *nra.DB, w *workload) (*replay, error) {
	db, err := nra.OpenDirDurable(liveDir)
	if err != nil {
		return nil, err
	}
	r := &replay{
		rec: newRecorder(), ctx: context.Background(), db: db, memDB: memDB, snap: snap,
		srv:       service.New(service.Config{DB: db, MemPoolBytes: poolBytes}),
		strategy:  nra.Auto.WithVectorized(true).WithMemoryPool(nra.NewMemPool(poolBytes)),
		opts:      core.Optimized(),
		checkAll:  !w.writes,
		writeUS:   map[string][]float64{},
		explained: map[*stmt]bool{},
	}
	r.opts.Vectorized = true
	r.opts.MemPool = exec.NewMemPool(poolBytes)
	r.sess = r.srv.OpenSession()
	requests := []service.Request{{Op: service.OpSet, Key: "vectorized", Value: "on"}}
	for i := 0; i < w.prepared; i++ {
		requests = append(requests, service.Request{Op: service.OpPrepare, Name: prepName(i), SQL: w.stmts[i].sql})
	}
	for _, req := range requests {
		if resp := r.srv.Do(r.ctx, r.sess, req); !resp.OK {
			db.Close()
			return nil, fmt.Errorf("in-process %s: %v", req.Op, resp.Error)
		}
	}
	return r, nil
}

// write replays one single-row write: on the in-memory database, for the
// catalog's own cost, then through the dispatcher on the durable one.
func (r *replay) write(req int, wr *writer, t *tally) {
	root := r.rec.begin("request", 0, req)
	defer r.rec.end(root)
	op := wr.draw()
	var n int
	var err error
	d := r.rec.timed("catalog."+op.class, root, req, func() { n, err = r.memDB.Exec(op.sql) })
	if err != nil || n != 1 {
		t.fail("%s: in-memory Exec: %d rows, %v: %s", op.class, n, err, op.sql)
	}
	r.writeUS[op.class] = append(r.writeUS[op.class], us(d))
	var resp service.Response
	r.rec.timed("service.exec", root, req, func() {
		resp = r.srv.Do(r.ctx, r.sess, service.Request{Op: service.OpExec, SQL: op.sql})
	})
	if !resp.OK || resp.RowsAffected != 1 {
		t.fail("%s: Server.Do: %+v: %s", op.class, resp.Error, op.sql)
		return
	}
	t.ok()
	wr.ack(op)
}

// read replays one read statement layer by layer, one span per call.
func (r *replay) read(req int, op readOp, t *tally) {
	r.reads++
	rec, s := r.rec, op.st
	root := rec.begin("request", 0, req)
	defer rec.end(root)

	var parsed sql.Stmt
	var stm *sql.Statement
	var err error
	r.parseUS = append(r.parseUS, us(rec.timed("sql.parse", root, req, func() { parsed, err = sql.ParseStatement(s.sql) })))
	if err == nil {
		r.bindUS = append(r.bindUS, us(rec.timed("sql.bind", root, req, func() { stm, err = sql.AnalyzeStatement(parsed, r.snap) })))
	}
	if err != nil || stm.Query == nil {
		t.fail("%s: parse/bind: %v", s.class, err)
		return
	}
	var plan string
	r.planUS = append(r.planUS, us(rec.timed("core.plan", root, req, func() { plan, err = core.Explain(stm.Query, r.opts) })))
	if err != nil {
		t.fail("%s: core.Explain: %v", s.class, err)
		return
	}
	if !r.explained[s] {
		r.explained[s] = true
		for _, g := range segmentsRE.FindAllStringSubmatch(plan, -1) {
			a, _ := strconv.ParseInt(g[1], 10, 64) // the pattern admits digits only
			b, _ := strconv.ParseInt(g[2], 10, 64)
			r.segScanned, r.segTotal = r.segScanned+a, r.segTotal+b
		}
	}

	// The execution twice: untraced between two reads of the allocator's
	// counters, and traced — the engine's own span tree, through the
	// public Tracer option. Whichever runs second finds the caches warm,
	// so the order alternates.
	var out *relation.Relation
	var opStats []core.OpStat
	var est exec.Stats
	var uerr error
	untraced := func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, uerr = core.Execute(stm.Query, r.opts)
		r.untracedNS += time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		r.mallocs += after.Mallocs - before.Mallocs
		r.allocBytes += after.TotalAlloc - before.TotalAlloc
	}
	traced := func() {
		topts := r.opts
		topts.Tracer = obsv.NewTracer()
		id := rec.begin("core.exec", root, req)
		out, opStats, est, err = core.ExecuteAnalyzed(stm.Query, topts)
		r.tracedNS += rec.end(id).Nanoseconds()
		if err == nil {
			rec.graft(topts.Tracer.Finish(), id, req, rec.spans[id-1].Start)
		}
	}
	if req%2 == 0 {
		untraced()
		traced()
	} else {
		traced()
		untraced()
	}
	if err != nil || uerr != nil {
		t.fail("%s: core.Execute: %v %v", s.class, err, uerr)
		return
	}
	r.resultRows += int64(out.Len())
	r.peakBytes = max(r.peakBytes, est.PeakBytes)
	r.spills, r.spillBytes = r.spills+est.Spills, r.spillBytes+est.SpillBytes
	for _, o := range opStats {
		if o.Est >= 0 {
			r.qerrs = append(r.qerrs, opt.QError(o.Est, o.Act))
		}
	}

	// The same statement through the public database API, then what
	// Server.Do adds once the query has returned — the canonical sort and
	// the boxing of every row into [][]any — timed directly on that
	// result. (Do minus QueryWithContext would be the difference of two
	// whole executions: its noise is larger than the quantity. Admission
	// and strategy build are microseconds and show in the wire overhead.)
	// Then through the dispatcher itself, for the response to encode and
	// to check.
	var res *nra.Result
	rec.timed("nra.query", root, req, func() { res, err = r.db.QueryWithContext(r.ctx, s.sql, r.strategy) })
	if err != nil {
		t.fail("%s: DB.QueryWithContext: %v", s.class, err)
		return
	}
	r.renderUS = append(r.renderUS, us(rec.timed("service.render", root, req, func() {
		res.Sort()
		boxedSink = res.Rows()
	})))
	request := service.Request{Op: service.OpQuery, SQL: s.sql}
	if op.prep != "" {
		request = service.Request{Op: service.OpRun, Name: op.prep}
	}
	var resp service.Response
	rec.timed("service.do", root, req, func() { resp = r.srv.Do(r.ctx, r.sess, request) })
	r.encodeMS = append(r.encodeMS, ms(rec.timed("service.encode", root, req, func() { _, err = json.Marshal(resp) })))
	check := r.checkAll || !s.volatile
	switch {
	case !resp.OK || err != nil:
		t.fail("%s: Server.Do: %+v %v", s.class, resp.Error, err)
	case check && (len(resp.Rows) != s.want.rows || res.NumRows() != s.want.rows || out.Len() != s.want.rows):
		t.fail("%s: rows core %d, nra %d, service %d; oracle has %d", s.class, out.Len(), res.NumRows(), len(resp.Rows), s.want.rows)
	default:
		t.ok()
	}
}

// report turns the accumulators into per-layer metrics.
func (r *replay) report(m map[string]float64) {
	reads := float64(r.reads)
	m["sql.parse_us"] = median(r.parseUS)
	m["sql.bind_us"] = median(r.bindUS)
	m["core.plan_us"] = median(r.planUS)
	m["core.exec_ms"] = float64(r.tracedNS) / 1e6 / reads
	m["exec.allocs_per_op"] = float64(r.mallocs) / reads
	m["exec.alloc_bytes_per_op"] = float64(r.allocBytes) / reads
	m["opt.qerror_p50"] = median(r.qerrs)
	m["opt.qerror_max"] = percentile(r.qerrs, 1)
	m["service.do_overhead_us"] = median(r.renderUS)
	m["service.encode_ms"] = median(r.encodeMS)
	m["catalog.insert_us"] = median(r.writeUS["insert"])
	m["catalog.update_us"] = median(r.writeUS["update"])
	m["catalog.delete_us"] = median(r.writeUS["delete"])
	m["bench.trace_overhead_ratio"] = ratio(float64(r.tracedNS), float64(r.untracedNS))
	m["exec.peak_bytes"] = float64(r.peakBytes)
	m["exec.spills"] = float64(r.spills)
	m["exec.spill_bytes"] = float64(r.spillBytes)
	m["colstore.groups_scanned_ratio"] = 1 // no [segments:] label: nothing was pruned
	if r.segTotal > 0 {
		m["colstore.groups_scanned_ratio"] = float64(r.segScanned) / float64(r.segTotal)
	}
	operatorMetrics(r.rec.spans, r.reads, r.resultRows, m)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// operatorMetrics derives the exec.* and vec.* metrics from the grafted
// engine spans: self time per operator class as a mean per read, and the
// operators' own row and batch counters as totals over the replay.
func operatorMetrics(spans []span, reads int, resultRows int64, m map[string]float64) {
	self := selfByName(spans)
	for _, k := range []string{"scan", "join", "nestlink", "sort", "finish", "other"} {
		m["exec."+k+"_self_ms"] = float64(self["exec."+k]) / 1e6 / float64(reads)
	}
	var rowsIn, batches, operators, batched int64
	sums := map[string][2]int64{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "exec.") {
			continue
		}
		v := sums[s.Name]
		sums[s.Name] = [2]int64{v[0] + s.RowsIn, v[1] + s.RowsOut}
		if s.Name == "exec.other" || s.Name == "exec.finish" {
			continue // planner-level spans repeat their operator's rows
		}
		rowsIn += s.RowsIn
		batches += s.Batches
		operators++
		if s.Batches > 0 {
			batched++
		}
	}
	m["exec.scan_rows_out"] = float64(sums["exec.scan"][1])
	m["exec.join_rows_in"] = float64(sums["exec.join"][0])
	m["exec.join_rows_out"] = float64(sums["exec.join"][1])
	m["exec.nestlink_rows_in"] = float64(sums["exec.nestlink"][0])
	m["exec.nestlink_rows_out"] = float64(sums["exec.nestlink"][1])
	m["exec.tuples_per_result_row"] = ratio(float64(rowsIn), float64(resultRows))
	m["vec.batches"] = float64(batches)
	m["exec.batch_op_share"] = ratio(float64(batched), float64(operators))
}

// layerShares groups the run's time the way the workloads were chosen:
// which group of layers is the largest share on each. Everything but
// the wire comes from the traced pass's self times; the wire is the wire
// pass's client latency beyond the server's own elapsed time.
func layerShares(spans []span, wireNS float64) map[string]float64 {
	self := selfByName(spans)
	groups := map[string][]string{
		"join+nestlink": {"exec.join", "exec.nestlink"},
		// A scan span runs from Open to Close of the base-table iterator, so
		// it holds the block's local filter and projection too.
		"scan":           {"exec.scan"},
		"sort+other":     {"exec.sort", "exec.other"},
		"finish+service": {"exec.finish", "service.render", "service.encode"},
		// core.exec's self time is what Execute does besides running
		// operators: building the planner and the execution context.
		"sql+plan":   {"sql.parse", "sql.bind", "core.plan", "core.exec"},
		"write path": {"catalog.insert", "catalog.update", "catalog.delete", "service.exec"},
	}
	out := map[string]float64{"wire": wireNS}
	for g, names := range groups {
		for _, n := range names {
			out[g] += float64(self[n])
		}
	}
	// nra.query and service.do re-run the whole statement and belong to
	// no group: the calls above already account for its parts.
	var total float64
	for _, v := range out {
		total += v
	}
	for g := range out {
		out[g] = ratio(out[g], total)
	}
	return out
}

// storageLayer times the segment reader on every saved table: open
// (footer + checksum) and a full decode of every column.
func storageLayer(dir string, m map[string]float64) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return err
	}
	var open, decode time.Duration
	var bytes, rows int64
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		start := time.Now()
		r, err := colstore.Open(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		open += time.Since(start)
		start = time.Now()
		for c := 0; c < r.NumCols(); c++ {
			if _, err := r.Column(c); err != nil {
				return fmt.Errorf("%s column %d: %w", path, c, err)
			}
		}
		decode += time.Since(start)
		bytes += int64(r.SizeBytes())
		rows += int64(r.Rows())
	}
	m["colstore.open_ms"] = ms(open)
	m["colstore.decode_mb_s"] = ratio(float64(bytes)/(1<<20), decode.Seconds())
	m["colstore.bytes_per_row"] = ratio(float64(bytes), float64(rows))
	return nil
}

// walLayer measures the journal on the records the traced pass's durable
// database wrote: the cost of one fsynced append, the journal's size per
// user byte, and replay onto a freshly loaded catalog.
func walLayer(liveDir, scratch string, ckpt uint64, userBytes int64, m map[string]float64) error {
	m["wal.append_us"], m["wal.bytes_per_user_byte"], m["wal.replay_ms"] = 0, 0, 0
	journal := filepath.Join(liveDir, csvio.WALName)
	recs, err := wal.Replay(vfs.OS, journal, ckpt)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	log, err := wal.Open(vfs.OS, filepath.Join(scratch, "append.jsonl"), ckpt, wal.SyncOnCommit)
	if err != nil {
		return err
	}
	var appendUS []float64
	for _, r := range recs {
		start := time.Now()
		if err := log.Append(r); err != nil {
			log.Close()
			return err
		}
		appendUS = append(appendUS, us(time.Since(start)))
	}
	if err := log.Close(); err != nil {
		return err
	}
	m["wal.append_us"] = median(appendUS)
	info, err := os.Stat(journal)
	if err != nil {
		return err
	}
	m["wal.bytes_per_user_byte"] = ratio(float64(info.Size()), float64(userBytes))

	cat, ckpt2, err := csvio.LoadFS(vfs.OS, liveDir)
	if err != nil {
		return err
	}
	start := time.Now()
	recs, err = wal.Replay(vfs.OS, journal, ckpt2)
	if err != nil {
		return err
	}
	if err := wal.Apply(cat, recs); err != nil {
		return err
	}
	m["wal.replay_ms"] = ms(time.Since(start))
	return nil
}

// copyDir copies the regular files directly inside src into a new dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
