package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"nra/internal/bench"
)

// Workload names. Later issues cite them; BENCHMARK.json gives the
// reason each exists.
const (
	wlNestedJoin = "nested-join"
	wlWideResult = "wide-result"
	wlShortStmt  = "short-stmt"
	wlMixedDML   = "mixed-dml"
)

// stmt is one distinct read statement of a workload.
type stmt struct {
	class string // latency class: statements of one class cost about the same
	sql   string
	want  expect
	// volatile statements read rows the mixed-dml writer changes, so
	// their result is only checked while no writer runs.
	volatile bool
}

// workload is the seeded statement set of one benchmark workload plus
// how a session draws its next operation from it.
type workload struct {
	name   string
	line   bool // line protocol instead of HTTP
	stream bool // HTTP reads ask for ndjson streaming
	stmts  []*stmt
	// prepared is how many of the first statements every session registers
	// before the run, statement i under prepName(i).
	prepared int
	// zipf draws statements by Zipf rank; false = round robin.
	zipf bool
	// writes reports whether the measured window has a writer session.
	writes bool
	// traceOpsPerSec sizes the traced replay: ops = rate × seconds, a
	// fixed count for fixed arguments, so work counters repeat exactly.
	traceOpsPerSec float64
	// ordersRows is the orders cardinality, the writer's key space.
	ordersRows int
	customers  int
}

// Short-statement parameters: the literal is drawn Zipf(zipfS) from
// shortDistinct distinct statements, 8× the default plan-cache capacity
// of 256, so the head of the distribution hits the cache and the tail
// evicts; a quarter of the operations run one of shortPrepared prepared
// statements instead.
const (
	shortDistinct = 2048
	zipfS         = 1.1
	shortPrepared = 8
	runShare      = 0.25
)

// newWorkload builds the named workload's statements for a generated
// database. Every choice below is a function of seed alone.
func newWorkload(name string, env *bench.Env, seed uint64) (*workload, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	orders, err := tableRows(env, "orders")
	if err != nil {
		return nil, err
	}
	customers, err := tableRows(env, "customer")
	if err != nil {
		return nil, err
	}
	w := &workload{name: name, ordersRows: orders, customers: customers}

	// Q1k: Query 1 restricted to a 5 % key range of both tables — the one
	// statement whose segment zone maps can prune row groups.
	width := orders / 20
	if width < 1 {
		width = 1
	}
	lo := 1 + rng.Intn(orders-width+1)
	q1k := &stmt{class: "Q1k", volatile: true, sql: fmt.Sprintf(`select o_orderkey, o_orderpriority from orders
where o_orderkey >= %d and o_orderkey < %d
  and o_totalprice > all (select l_extendedprice from lineitem
      where l_orderkey = o_orderkey and l_orderkey >= %d and l_orderkey < %d
        and l_commitdate < l_receiptdate and l_shipdate < l_commitdate)`, lo, lo+width, lo, lo+width)}

	// largest returns the last (largest outer block) sweep point of a
	// figure of the paper.
	largest := func(fig string) (*stmt, error) {
		qs, err := env.QuerySQL(fig)
		if err != nil {
			return nil, err
		}
		return &stmt{class: fig, sql: qs[len(qs)-1]}, nil
	}

	switch name {
	case wlNestedJoin:
		// Query 2a and 2b, and Query 3 under its three operator pairs in the
		// (b) variant (p_partkey <> l_partkey and ps_suppkey = l_suppkey).
		// Every figure query reduces the 120 k-row lineitem to the 2 % with
		// l_quantity = 25 before it joins, and under -mem-pool that row scan
		// costs more than the join of what is left: with the (a) and (c)
		// variants the first traced run had the scan at 60 % of the time
		// and join + nest/link at 35 %. The (b) variant's inequality pairs
		// every partsupp row with its supplier's lineitems of the other
		// parts, so the hash join, the pre-nest sort and the linking
		// selection carry ≈ 100 k tuples a statement and join + nest/link is
		// the largest share (46 %, scan 34 %).
		for _, fig := range []string{"fig5", "fig6", "fig7b", "fig8b", "fig9b"} {
			s, err := largest(fig)
			if err != nil {
				return nil, err
			}
			w.stmts = append(w.stmts, s)
		}
		w.stmts = append(w.stmts, q1k)
		w.traceOpsPerSec = 2
	case wlWideResult:
		// Query 1's shape (one level, > ALL, correlated on a key) at four
		// outer sizes, 7 k to 30 k result rows of four columns, with
		// customer (3 k rows, reached by its key) as the inner block where
		// the paper's fig4 has lineitem. With lineitem the row scan was
		// 58 % of the time and rendering the result 13 %: the workload
		// measured the scan a second time. With the cheap inner block what
		// grows with the result — finish, canonical sort, boxing, ndjson,
		// the socket — is the largest share.
		for i := 1; i <= 4; i++ {
			w.stmts = append(w.stmts, &stmt{class: fmt.Sprintf("q1w.%d", i), sql: fmt.Sprintf(`select o_orderkey, o_orderpriority, o_clerk, o_comment from orders
where o_orderkey <= %d
  and o_totalprice > all (select c_acctbal from customer
      where c_custkey = o_custkey and c_mktsegment = 'BUILDING')`, orders*i/4)})
		}
		w.stream = true
		w.traceOpsPerSec = 2
	case wlShortStmt:
		for i := 0; i < shortDistinct; i++ {
			w.stmts = append(w.stmts, shortStatement(i))
		}
		w.prepared = shortPrepared
		w.line = true
		w.zipf = true
		w.traceOpsPerSec = 200
	case wlMixedDML:
		for _, fig := range []string{"fig6", "fig7c"} {
			s, err := largest(fig)
			if err != nil {
				return nil, err
			}
			w.stmts = append(w.stmts, s)
		}
		w.stmts = append(w.stmts, q1k)
		w.writes = true
		w.traceOpsPerSec = 20
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

// prepName is the name statement i is prepared under.
func prepName(i int) string { return "p" + strconv.Itoa(i) }

func tableRows(env *bench.Env, table string) (int, error) {
	t, err := env.Cat.Table(table)
	if err != nil {
		return 0, err
	}
	return t.Rel.Len(), nil
}

// shortStatement is the i-th of the distinct one-level statements over
// the small tables (supplier: 200 rows at sf 0.02, nation: 25): three
// templates — IN, NOT EXISTS, > ALL — each with a literal that makes its
// text, and so its plan-cache key, unique. Execution touches a few
// hundred rows, so what the service does around it is most of the cost.
func shortStatement(i int) *stmt {
	v := i / 3
	bal := -999.5 + float64(v)*16 // s_acctbal spans -999.99 .. 9999.99
	switch i % 3 {
	case 0:
		return &stmt{class: "in", sql: fmt.Sprintf(
			`select s_suppkey, s_name from supplier where s_acctbal < %.1f and s_nationkey in (select n_nationkey from nation where n_regionkey = %d)`,
			bal, v%5)}
	case 1:
		return &stmt{class: "notexists", sql: fmt.Sprintf(
			`select n_nationkey, n_name from nation where n_regionkey = %d and not exists (select * from supplier where s_nationkey = n_nationkey and s_acctbal > %.1f)`,
			v%5, bal)}
	default:
		return &stmt{class: "all", sql: fmt.Sprintf(
			`select s.s_suppkey, s.s_name from supplier s where s.s_nationkey = %d and s.s_acctbal > all (select t.s_acctbal from supplier t where t.s_nationkey = s.s_nationkey and t.s_acctbal < %.1f)`,
			v%25, bal)}
	}
}

// readOp is one read operation drawn for a session.
type readOp struct {
	st   *stmt
	prep string // non-empty: run this prepared statement instead of st.sql
}

// class names the latency class an operation is accounted under:
// prepared runs skip parse and bind, so they are a class of their own.
func (o readOp) class() string {
	if o.prep != "" {
		return "run"
	}
	return o.st.class
}

// reader draws a session's operations. Sessions get different offsets
// (round robin) or different streams (Zipf) from the one seed, so two
// sessions do not run the same statement in lock step.
type reader struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	next int
}

func (w *workload) reader(seed uint64, session int) *reader {
	r := &reader{w: w, rng: rand.New(rand.NewSource(int64(seed)*1009 + int64(session)))}
	if w.zipf {
		r.zipf = rand.NewZipf(r.rng, zipfS, 1, uint64(len(w.stmts)-1))
	}
	r.next = session * (len(w.stmts) / 2)
	return r
}

func (r *reader) draw() readOp {
	if r.zipf == nil {
		st := r.w.stmts[r.next%len(r.w.stmts)]
		r.next++
		return readOp{st: st}
	}
	if r.rng.Float64() < runShare {
		k := r.rng.Intn(r.w.prepared)
		return readOp{st: r.w.stmts[k], prep: prepName(k)}
	}
	return readOp{st: r.w.stmts[r.zipf.Uint64()]}
}

// write is one single-row DML statement with its effect on the model.
type write struct {
	class string // insert, update, delete
	sql   string
	key   int64
	price float64 // insert, update: the o_totalprice written
}

// insertedRowBytes is the logical size of a row the writer inserts: the
// widths of its nine cells (integers and floats 8 bytes, strings their
// length).
const insertedRowBytes = 8 + 8 + 1 + 8 + 10 + 8 + 15 + 8 + 5

// writer generates the single-row DML mix on orders — half INSERT, 30 %
// UPDATE by primary key, 20 % DELETE of an earlier insert — and keeps
// the model every acknowledged write is later checked against.
type writer struct {
	rng       *rand.Rand
	base      int   // rows the generated orders table holds: keys 1..base
	customers int   // o_custkey range
	nextKey   int64 // next key to insert
	live      []int64
	// model: the o_totalprice every touched key must have; deleted keys
	// map to absent.
	price   map[int64]float64
	deleted map[int64]bool
	// user bytes the acknowledged writes carried.
	userBytes int64
}

func newWriter(seed uint64, ordersRows, customers int) *writer {
	return &writer{
		rng:       rand.New(rand.NewSource(int64(seed)*7919 + 17)),
		base:      ordersRows,
		customers: customers,
		nextKey:   int64(ordersRows) + 1000,
		price:     map[int64]float64{},
		deleted:   map[int64]bool{},
	}
}

func (w *writer) cents() float64 { return float64(w.rng.Intn(50_000_000)) / 100 }

// draw picks the next write. The model changes only in ack.
func (w *writer) draw() write {
	p := w.rng.Float64()
	switch {
	case p < 0.5 || (p >= 0.8 && len(w.live) == 0):
		key, price := w.nextKey, w.cents()
		w.nextKey++
		return write{class: "insert", key: key, price: price, sql: fmt.Sprintf(
			`insert into orders values (%d, %d, 'O', %s, '1998-08-02', '1-URGENT', 'Clerk#000000001', 0, 'bench')`,
			key, 1+w.rng.Intn(w.customers), strconv.FormatFloat(price, 'f', 2, 64))}
	case p < 0.8:
		key, price := int64(1+w.rng.Intn(w.base)), w.cents()
		return write{class: "update", key: key, price: price, sql: fmt.Sprintf(
			`update orders set o_totalprice = %s where o_orderkey = %d`,
			strconv.FormatFloat(price, 'f', 2, 64), key)}
	default:
		i := w.rng.Intn(len(w.live))
		return write{class: "delete", key: w.live[i], sql: fmt.Sprintf(
			`delete from orders where o_orderkey = %d`, w.live[i])}
	}
}

// ack records an acknowledged write in the model.
func (w *writer) ack(op write) {
	switch op.class {
	case "insert":
		w.live = append(w.live, op.key)
		w.price[op.key] = op.price
		w.userBytes += insertedRowBytes
	case "update":
		w.price[op.key] = op.price
		w.userBytes += 16
	case "delete":
		for i, k := range w.live {
			if k == op.key {
				w.live[i] = w.live[len(w.live)-1]
				w.live = w.live[:len(w.live)-1]
				break
			}
		}
		delete(w.price, op.key)
		w.deleted[op.key] = true
		w.userBytes += 8
	}
}
