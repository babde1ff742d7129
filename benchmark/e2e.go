package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"nra/internal/service"
)

// runConfig is everything one run is a function of.
type runConfig struct {
	root     string // repository root: go.mod, cmd/nrad, BENCHMARK.json
	buildDir string // .bench_build: nrad binary and scratch directories
	scratch  string // this run's own directory under buildDir
	outDir   string // where a traced run writes its spans: benchmark/out
	spec     *benchSpec
	workload string
	seed     uint64
	seconds  float64
	sf       float64
	// short marks a -smoke run: a window too short to hold a 95th
	// percentile is expected there and an error anywhere else.
	short bool
	// Repetition counts; -smoke lowers them.
	setupReps   int // set-ups (generate + analyze + save + launch) per run
	quietWrites int // read-only workloads: writes on the idle server after the window
	tailWrites  int // single-row writes left in the WAL before the crash
	recoverReps int // crash + relaunch repetitions
	warmOps     int // short-stmt warm-up operations per session
	// corrupt names a statement class whose expected hash is deliberately
	// wrong: the acceptance check that a mismatch fails the run.
	corrupt string
}

// smoke shrinks a configuration to a tenth of the data, a fiftieth of
// the window and a single repetition of everything: enough to prove the
// plumbing, far too little to measure.
func (cfg runConfig) smoke() runConfig {
	cfg.sf, cfg.seconds, cfg.short = smokeScaleFactor, cfg.seconds/50, true
	cfg.setupReps, cfg.quietWrites, cfg.tailWrites, cfg.recoverReps, cfg.warmOps = 1, 10, 10, 1, 20
	return cfg
}

// pinEvery is how many reads the mixed-dml reader does between pinned
// double reads.
const pinEvery = 100

// tally counts operations attempted and failed, keeping the first few
// failure messages. An operation fails on a transport or server error,
// a row-count or hash mismatch, or a write the recovered server lost.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	messages  []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	t.failed++
	if len(t.messages) < 10 {
		t.messages = append(t.messages, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// latencies collects per-class client-side timings in milliseconds.
type latencies struct {
	mu    sync.Mutex
	total map[string][]float64
	ttfr  map[string][]float64
	// wireUS is client latency minus the server's own elapsed_us.
	wireUS []float64
}

func newLatencies() *latencies {
	return &latencies{total: map[string][]float64{}, ttfr: map[string][]float64{}}
}

func (l *latencies) add(class string, rep reply) {
	l.mu.Lock()
	l.total[class] = append(l.total[class], ms(rep.total))
	l.ttfr[class] = append(l.ttfr[class], ms(rep.ttfr))
	l.wireUS = append(l.wireUS, float64(rep.total.Microseconds()-rep.elapsedUS))
	l.mu.Unlock()
}

func (l *latencies) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, v := range l.total {
		n += len(v)
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkedRead runs one read and checks its result: the row count every
// time, the row hash on the statement's first occurrence in this session
// and every hashEvery-th after. It returns false when the session's
// transport is gone.
func checkedRead(c conn, op readOp, seen map[*stmt]int, check bool, lat *latencies, t *tally) bool {
	n := seen[op.st]
	seen[op.st] = n + 1
	wantHash := check && n%hashEvery == 0
	rep, err := c.read(op.st.sql, op.prep, wantHash)
	switch {
	case err != nil:
		t.fail("%s: %v: %s", op.st.class, err, oneLine(op.st.sql))
		return sessionUsable(err)
	case check && rep.rows != op.st.want.rows:
		t.fail("%s: %d rows, oracle has %d: %s", op.st.class, rep.rows, op.st.want.rows, oneLine(op.st.sql))
	case wantHash && rep.hash != op.st.want.hash:
		t.fail("%s: row hash %016x, oracle has %016x: %s", op.st.class, rep.hash, op.st.want.hash, oneLine(op.st.sql))
	default:
		t.ok()
	}
	if lat != nil {
		lat.add(op.class(), rep)
	}
	return true
}

func oneLine(sql string) string { return strings.Join(strings.Fields(sql), " ") }

// sessionUsable reports whether a session can go on after err: yes after
// a statement the server refused, no once the transport failed.
func sessionUsable(err error) bool {
	var se *serverError
	return errors.As(err, &se)
}

// openSession dials the workload's wire surface and puts the session in
// the measured configuration: vectorized on, parallelism at its default,
// the workload's prepared statements registered.
func openSession(srv *server, w *workload) (conn, error) {
	var c conn
	var err error
	if w.line {
		c, err = dialLine(srv.lineAddr)
	} else {
		c, err = dialHTTP(srv.httpAddr, w.stream)
	}
	if err != nil {
		return nil, err
	}
	if err := c.control(service.Request{Op: service.OpSet, Key: "vectorized", Value: "on"}); err != nil {
		c.close()
		return nil, fmt.Errorf("set vectorized on: %w", err)
	}
	for i := 0; i < w.prepared; i++ {
		if err := c.control(service.Request{Op: service.OpPrepare, Name: prepName(i), SQL: w.stmts[i].sql}); err != nil {
			c.close()
			return nil, fmt.Errorf("prepare %s: %w", prepName(i), err)
		}
	}
	return c, nil
}

// readLoop is one closed-loop reader session: it sends the next
// statement only once the previous reply is in, until the deadline.
// With double set, every pinEvery-th read is replaced by a pinned double
// read: pin a snapshot, run the volatile statement twice, and require
// the two results to be identical whatever the writer commits meanwhile.
func readLoop(c conn, rd *reader, deadline time.Time, checkVolatile, double bool, lat *latencies, t *tally) {
	seen := map[*stmt]int{}
	for i := 1; time.Now().Before(deadline); i++ {
		if double && i%pinEvery == 0 {
			if !pinnedDoubleRead(c, rd.w, lat, t) {
				return
			}
			continue
		}
		op := rd.draw()
		if !checkedRead(c, op, seen, checkVolatile || !op.st.volatile, lat, t) {
			return
		}
	}
}

func pinnedDoubleRead(c conn, w *workload, lat *latencies, t *tally) bool {
	var vol *stmt
	for _, s := range w.stmts {
		if s.volatile {
			vol = s
		}
	}
	if err := c.control(service.Request{Op: service.OpPin}); err != nil {
		t.fail("pin: %v", err)
		return false
	}
	first, err1 := c.read(vol.sql, "", true)
	second, err2 := c.read(vol.sql, "", true)
	switch {
	case err1 != nil || err2 != nil:
		t.fail("pinned double read of %s: %v %v", vol.class, err1, err2)
	case first.rows != second.rows || first.hash != second.hash:
		t.fail("pinned double read of %s differs: %d rows %016x, then %d rows %016x",
			vol.class, first.rows, first.hash, second.rows, second.hash)
	default:
		t.ok()
		lat.add(vol.class, first)
		lat.add(vol.class, second)
	}
	if err := c.control(service.Request{Op: service.OpUnpin}); err != nil {
		t.fail("unpin: %v", err)
		return false
	}
	return true
}

// writeLoop is the closed-loop writer session: single-row statements
// until the deadline or, when n > 0, exactly n of them.
func writeLoop(c conn, wr *writer, deadline time.Time, n int, lat *latencies, t *tally) {
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
		op := wr.draw()
		rep, err := c.exec(op.sql)
		switch {
		case err != nil:
			t.fail("%s: %v: %s", op.class, err, op.sql)
			if !sessionUsable(err) {
				return
			}
			continue
		case rep.affected != 1:
			t.fail("%s: %d rows affected, want 1: %s", op.class, rep.affected, op.sql)
			continue
		}
		t.ok()
		wr.ack(op)
		if lat != nil {
			lat.add(op.class, rep)
		}
	}
}

// outcome is what a run hands back: the measured values by metric name
// (nil when wrong answers ended the run before timing), the operation
// tally, and notes for the human reader.
type outcome struct {
	measured map[string]float64
	tally    *tally
	notes    []string
}

// runE2E measures one workload from the client side, tracing off.
func runE2E(cfg runConfig, ps *procs) (*outcome, error) {
	nradBin, build, err := buildNrad(cfg.root, cfg.buildDir)
	if err != nil {
		return nil, err
	}

	// Set-up: generate once, then several times over analyze + save +
	// launch to the first healthy answer. A set-up sample is the one
	// generation plus one such repetition; each launch is also a
	// cold-start sample. The last directory and server are the ones the
	// run uses.
	env, genTime, err := generate(cfg.sf, dataSeed)
	if err != nil {
		return nil, err
	}
	var prep *prepared
	var srv *server
	var setups, colds []float64
	for i := 0; i < cfg.setupReps; i++ {
		if srv != nil {
			srv.kill()
		}
		start := time.Now()
		prep, err = prepare(env, filepath.Join(cfg.scratch, fmt.Sprintf("data%d", i)))
		if err != nil {
			return nil, err
		}
		runtime.GC() // so the harness's own collector is not running beside the launch
		var cold time.Duration
		srv, cold, err = ps.launch(nradBin, prep.dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, (genTime + time.Since(start)).Seconds())
		colds = append(colds, ms(cold))
	}

	w, err := newWorkload(cfg.workload, env, cfg.seed)
	if err != nil {
		return nil, err
	}
	env = nil // the statements are drawn; let the generated catalog go
	debug.FreeOSMemory()
	if err := fillExpected(prep.dir, w.stmts); err != nil {
		return nil, err
	}
	for _, s := range w.stmts {
		if s.class == cfg.corrupt {
			s.want.hash++
		}
	}

	t := &tally{}
	wr := newWriter(cfg.seed, w.ordersRows, w.customers)
	readLat, writeLat := newLatencies(), newLatencies()

	// Sessions and warm-up: every statement once per session (each a
	// first occurrence, so each is hash-checked), or warmOps draws for
	// the Zipf workload, so the plan cache and the lazily built indexes
	// are in their steady state when timing starts.
	nReaders := 2
	if w.writes {
		nReaders = 1
	}
	readers := make([]conn, nReaders)
	for i := range readers {
		if readers[i], err = openSession(srv, w); err != nil {
			return nil, err
		}
	}
	warm := len(w.stmts)
	if w.zipf {
		warm = cfg.warmOps
	}
	for i, c := range readers {
		rd := w.reader(cfg.seed+1, i)
		seen := map[*stmt]int{}
		for k := 0; k < warm; k++ {
			if !checkedRead(c, rd.draw(), seen, true, nil, t) {
				break
			}
		}
	}
	var writeConn conn
	if w.writes {
		if writeConn, err = dialHTTP(srv.httpAddr, false); err != nil {
			return nil, err
		}
		writeLoop(writeConn, wr, time.Time{}, 20, nil, t)
	}
	if t.failed > 0 {
		return &outcome{tally: t}, nil // wrong answers before timing: no point measuring
	}

	// The measured window.
	cpu0, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	errc := make(chan error, nReaders+1) // one slot per session goroutine
	for i, c := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverTo(errc)
			readLoop(c, w.reader(cfg.seed, i), deadline, !w.writes, w.writes, readLat, t)
		}()
	}
	if w.writes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer recoverTo(errc)
			writeLoop(writeConn, wr, deadline, 0, writeLat, t)
		}()
	}
	wg.Wait()
	window := time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	cpu1, err := srv.cpuMS()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	readOps, writeOps := readLat.count(), writeLat.count()
	for _, c := range readers {
		c.close()
	}

	// The benchmark contract wants every end-to-end metric from every
	// workload, so the read-only workloads report the write path too: the
	// latency of single-row writes on the now idle server — these and the
	// WAL tail's below. It is the same measurement on all three and says
	// nothing about the workload; the writer beside a reader is mixed-dml.
	var quiet *latencies
	if !w.writes {
		quiet = writeLat
		if writeConn, err = dialHTTP(srv.httpAddr, false); err != nil {
			return nil, err
		}
		writeLoop(writeConn, wr, time.Time{}, cfg.quietWrites, quiet, t)
	}
	writeConn.close()

	// Graceful stop, as an operator would: SIGTERM drains and checkpoints
	// the WAL. Whatever was written so far is now in the segments.
	if err := srv.drain(); err != nil {
		return nil, err
	}

	// Durability epilogue: a fixed number of writes on the relaunched
	// server, so the WAL tail — and with it the replay work — does not
	// depend on how fast the window's writer was; then crash, relaunch,
	// and check every acknowledged write of the run.
	srv, _, err = ps.launch(nradBin, prep.dir)
	if err != nil {
		return nil, err
	}
	tc, err := dialHTTP(srv.httpAddr, false)
	if err != nil {
		return nil, err
	}
	writeLoop(tc, wr, time.Time{}, cfg.tailWrites, quiet, t)
	tc.close()
	var recovers []float64
	for i := 0; i < cfg.recoverReps; i++ {
		srv.kill()
		var d time.Duration
		if srv, d, err = ps.launch(nradBin, prep.dir); err != nil {
			return nil, fmt.Errorf("relaunch after crash: %w", err)
		}
		recovers = append(recovers, ms(d))
	}
	if err := verifyOrders(srv, wr, t); err != nil {
		return nil, err
	}
	disk, err := dirBytes(prep.dir)
	if err != nil {
		return nil, err
	}
	srv.kill()

	ops := readOps + writeOps
	nr, nw := len(pooled(readLat.total)), len(pooled(writeLat.total))
	if ops == 0 || nw == 0 {
		return nil, fmt.Errorf("no operation completed in the window")
	}
	// latency_p95_ms and write_latency_p95_ms are gated: refuse to report
	// them from fewer samples than leave ten beyond the 95th percentile.
	if !cfg.short && (tailPercentile(nr) < 0.95 || tailPercentile(nw) < 0.95) {
		return nil, fmt.Errorf("%d reads and %d writes sampled: a 95th percentile needs %d of each; lengthen --seconds",
			nr, nw, minBeyond*20)
	}
	throughput := float64(readOps) / window.Seconds()
	if w.writes {
		throughput = float64(writeOps) / window.Seconds()
	}
	m := map[string]float64{
		"setup_s":                  median(setups),
		"cold_start_ms":            median(colds),
		"latency_p50_ms":           classMedian(readLat.total),
		"latency_p95_ms":           percentile(pooled(readLat.total), 0.95),
		"ttfr_p50_ms":              classMedian(readLat.ttfr),
		"throughput_ops_s":         throughput,
		"server_cpu_ms_per_op":     (cpu1 - cpu0) / float64(ops),
		"peak_rss_mb":              rss,
		"write_latency_p50_ms":     classMedian(writeLat.total),
		"write_latency_p95_ms":     percentile(pooled(writeLat.total), 0.95),
		"recover_ms":               median(recovers),
		"disk_bytes_per_user_byte": float64(disk) / float64(prep.userBytes+int64(len(wr.live))*insertedRowBytes),
	}
	notes := []string{
		fmt.Sprintf("read percentiles over n=%d samples (highest supported: p%g)", nr, 100*tailPercentile(nr)),
		fmt.Sprintf("write percentiles over n=%d samples (highest supported: p%g)", nw, 100*tailPercentile(nw)),
		fmt.Sprintf("setup_s, cold_start_ms: median of %d; recover_ms: median of %d relaunches over a %d-record WAL tail",
			len(setups), len(recovers), cfg.tailWrites),
		fmt.Sprintf("window %.2fs: %d reads, %d writes; go build %.2fs", window.Seconds(), readOps, writeOps, build.Seconds()),
	}
	return &outcome{measured: m, tally: t, notes: notes}, nil
}

// recoverTo turns a panic in a session goroutine into an error on errc,
// so the run ends through the normal path and its cleanup.
func recoverTo(errc chan<- error) {
	if r := recover(); r != nil {
		select {
		case errc <- fmt.Errorf("panic in session: %v", r):
		default:
		}
	}
}

// verifyOrders reads the whole orders table back from the recovered
// server and checks it against the writer's model: the row count, the
// price of every key an acknowledged INSERT or UPDATE wrote, and the
// absence of every key an acknowledged DELETE removed. This verifies WAL
// replay and checkpointing, not power loss: SIGKILL leaves the page
// cache intact (internal/faultinject covers torn writes).
func verifyOrders(srv *server, wr *writer, t *tally) error {
	body := strings.NewReader(`{"sql":"select o_orderkey, o_totalprice from orders"}`)
	resp, err := http.Post("http://"+srv.httpAddr+"/v1/query", "application/json", body)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	defer resp.Body.Close()
	var r service.Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if !r.OK {
		return fmt.Errorf("verify: %v", r.Error)
	}
	got := make(map[int64]any, len(r.Rows))
	for _, row := range r.Rows {
		if len(row) == 2 {
			if k, ok := row[0].(float64); ok {
				got[int64(k)] = row[1]
			}
		}
	}
	if want := wr.base + len(wr.live); len(got) != want {
		t.fail("recovered orders has %d rows, the writer's model has %d", len(got), want)
	} else {
		t.ok()
	}
	for key, price := range wr.price {
		if v, ok := got[key].(float64); !ok || v != price {
			t.fail("acknowledged write lost: orders %d has o_totalprice %v, model has %v", key, got[key], price)
		} else {
			t.ok()
		}
	}
	for key := range wr.deleted {
		if _, ok := got[key]; ok {
			t.fail("acknowledged delete lost: orders %d is back", key)
		} else {
			t.ok()
		}
	}
	return nil
}
