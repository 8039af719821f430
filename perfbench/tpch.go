package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"nodb"
	"nodb/internal/tpch"
)

type workload struct {
	name   string
	budget int64 // Options.CacheBudget
	reps   int   // set-ups per run, from fresh adaptive state; setup_s is their median
	run    func(b *bench) error
}

// coldSetups is how many open-and-prepare set-ups tpch-cold times for
// setup_s.
const coldSetups = 200

// workloads are the workloads BENCHMARK.json lists.
var workloads = []*workload{
	{name: "tpch-cold", run: runCold},
	{name: "tpch-warm", reps: 5, run: runClosed},
	{name: "tpch-budget", budget: 20 << 20, reps: 5, run: runClosed},
	{name: "serve-ingest", reps: 5, run: runServe},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// clients is how many clients or connections the workload drives.
func (w *workload) clients() int {
	if w.name == "tpch-cold" {
		return 1
	}
	return runtime.NumCPU()
}

// probe is one query of an episode with its oracle answer.
type probe struct {
	name, sql string
	args      []any
	want      answer
}

// tpchWarmups read every value of every column the eight queries read.
// The column cache covers a column only for the rows a scan parsed, and
// the queries' predicates limit those, so a warm set-up runs these scans
// without predicates after the cold pass.
var tpchWarmups = []string{
	"SELECT count(*), min(l_orderkey), min(l_partkey), min(l_quantity), min(l_extendedprice), min(l_discount), min(l_tax), min(l_returnflag), min(l_linestatus), min(l_shipdate), min(l_commitdate), min(l_receiptdate), min(l_shipinstruct), min(l_shipmode) FROM lineitem",
	"SELECT count(*), min(o_orderkey), min(o_custkey), min(o_orderdate), min(o_orderpriority), min(o_shippriority) FROM orders",
	"SELECT count(*), min(c_custkey), min(c_name), min(c_address), min(c_nationkey), min(c_phone), min(c_acctbal), min(c_mktsegment), min(c_comment) FROM customer",
	"SELECT count(*), min(p_partkey), min(p_brand), min(p_type), min(p_size), min(p_container) FROM part",
	"SELECT count(*), min(n_nationkey), min(n_name) FROM nation",
}

// tpchOracle returns the eight Fig-10 queries in the paper's order and the
// warm-up scans, each with its answer from the load-first engine.
func (b *bench) tpchOracle() (qs, warm []probe, err error) {
	pages := filepath.Join(b.cfg.work, "pages")
	o, err := newOracle(b.in, pages)
	if err != nil {
		return nil, nil, err
	}
	defer o.close()
	for _, q := range tpch.QueryOrder {
		a, err := o.answer(tpch.Queries[q])
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", q, err)
		}
		qs = append(qs, probe{name: q, sql: tpch.Queries[q], want: a})
	}
	for i, sql := range tpchWarmups {
		a, err := o.answer(sql)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up %d: %w", i, err)
		}
		warm = append(warm, probe{name: fmt.Sprintf("warmup%d", i), sql: sql, want: a})
	}
	return qs, warm, nil
}

// query runs one prepared SELECT, drains and checks it, and returns its
// latency. In a traced run it records spans around the first row and the
// drain, and the engine's profile of the query.
func (b *bench) query(st *nodb.Stmt, tmpl string, want answer, args ...any) (time.Duration, bool) {
	run := b.inRun.Load()
	traced := run && b.traceThis(tmpl)
	ctx := context.Background()
	var o *op
	if traced {
		o = b.tr.begin("query", true)
		ctx = nodb.WithProfile(ctx)
	}
	t0 := time.Now()
	i := o.start("query.first_row", 0)
	rows, err := st.QueryContext(ctx, args...)
	var got answer
	if err == nil {
		var more bool
		if more = rows.Next(); more {
			got = append(got, rowAnswer(rows))
		}
		o.end(i)
		j := o.start("query.drain", 0)
		for more && rows.Next() {
			got = append(got, rowAnswer(rows))
		}
		err = rows.Err()
		rows.Close()
		o.end(j)
	}
	d := time.Since(t0)
	var prof *nodb.Profile
	if traced && rows != nil {
		prof = rows.Profile()
	}
	o.finish(prof)
	if run && b.tr != nil {
		b.lay.latency(tmpl, traced, d)
		b.lay.profile(prof)
	}
	return d, b.check(tmpl, err, got, want)
}

func rowAnswer(rows *nodb.Rows) []any {
	vals := rows.Values()
	row := make([]any, len(vals))
	for i, v := range vals {
		row[i] = wireValue(v)
	}
	return row
}

// check counts one operation and whether it returned the oracle's answer.
func (b *bench) check(tmpl string, err error, got, want answer) bool {
	b.attempted.Add(1)
	if err == nil {
		err = compare(got, want)
	}
	if err != nil {
		b.fail("%s: %v", tmpl, err)
		return false
	}
	return true
}

// episodeTimes are one cold episode's figures.
type episodeTimes struct {
	setup            time.Duration // open plus prepare
	first, cold, hot time.Duration // first query, first pass, second pass (if run)
}

// episode opens a fresh DB on the raw files, checks that it starts with no
// adaptive state, prepares the queries and runs them in order passes
// times: the cold pass builds the positional map and fills the column
// cache, a second pass uses them. lats receives every query's latency. The
// caller closes the DB.
func (b *bench) episode(opts nodb.Options, qs []probe, passes int, lats *sample) (*nodb.DB, []*nodb.Stmt, episodeTimes, error) {
	var et episodeTimes
	run := b.inRun.Load()
	t0 := time.Now()
	o := b.tr.begin("open", run)
	db, err := b.in.open(opts)
	o.finish(nil)
	if err != nil {
		return nil, nil, et, err
	}
	opened := time.Since(t0)
	if pm, c := stateMB(db); pm+c != 0 {
		b.invariant("episode started with %.3f MB of adaptive state", pm+c)
	}
	t0 = time.Now()
	stmts := make([]*nodb.Stmt, len(qs))
	for i, q := range qs {
		o := b.tr.begin("prepare", run)
		stmts[i], err = db.Prepare(q.sql)
		o.finish(nil)
		if err != nil {
			db.Close()
			return nil, nil, et, fmt.Errorf("prepare %s: %w", q.name, err)
		}
	}
	et.setup = opened + time.Since(t0)
	for pass := 0; pass < passes; pass++ {
		p0 := time.Now()
		for i, q := range qs {
			// Cold and warm executions are separate templates, so traced
			// and untraced ones compare like with like.
			d, _ := b.query(stmts[i], q.name+[]string{".cold", ".warm"}[pass], q.want, q.args...)
			lats.add(d)
			if pass == 0 && i == 0 {
				et.first = d
			}
		}
		if pass == 0 {
			et.cold = time.Since(p0)
		} else {
			et.hot = time.Since(p0)
		}
	}
	return db, stmts, et, nil
}

// episodeMetrics sets the metrics every workload takes from its cold
// episodes; warm_pass_ms only when the episodes ran a second pass.
func (b *bench) episodeMetrics(eps []episodeTimes) {
	var first, cold, hot sample
	for _, e := range eps {
		first.add(e.first)
		cold.add(e.cold)
		if e.hot > 0 {
			hot.add(e.hot)
		}
	}
	b.timing(b.e2e, "first_query_ms", first)
	b.timing(b.e2e, "cold_pass_ms", cold)
	if len(hot) > 0 {
		b.timing(b.e2e, "warm_pass_ms", hot)
	}
}

// roundLatencies sets the latency percentiles from rounds that each run
// every query of the mix once: each round's percentiles, then their
// median. Every round runs the same queries, so each percentile falls
// between the same two of them however many rounds fit in the window, and
// a window of a few dozen queries still gives a steady tail.
func (b *bench) roundLatencies(rounds []sample) {
	var p50, p90, p99 sample
	n := 0
	for _, l := range rounds {
		p50 = append(p50, l.quantile(0.5))
		p90 = append(p90, l.quantile(0.9))
		p99 = append(p99, l.quantile(0.99))
		n += len(l)
	}
	b.e2e["latency_p50_ms"], b.e2e["latency_p90_ms"], b.e2e["latency_p99_ms"] = p50.median(), p90.median(), p99.median()
	b.samples["latency"] = n
	b.samples["rounds"] = len(rounds)
}

// latencyMetrics sets the latency percentiles of the measured window.
func (b *bench) latencyMetrics(lats sample) {
	b.e2e["latency_p50_ms"] = lats.quantile(0.5)
	b.e2e["latency_p90_ms"] = lats.quantile(0.9)
	b.e2e["latency_p99_ms"] = lats.quantile(0.99)
	b.samples["latency"] = len(lats)
}

// endMetrics sets the end-of-run memory figures; db is the DB the window
// ran on, still open.
func (b *bench) endMetrics(db *nodb.DB) {
	b.win.endState(db)
	b.e2e["state_mb"] = b.win.pmMB + b.win.cacheMB
	b.e2e["heap_mb"] = heapMB()
}

// runCold is tpch-cold: one client runs cold episodes back to back until
// the window ends. Each episode's open and prepare is its set-up.
func runCold(b *bench) error {
	qs, _, err := b.tpchOracle()
	if err != nil {
		return err
	}
	// Open and prepare take well under a millisecond, so setup_s is the
	// median over coldSetups of them ahead of the window, timed from a
	// collected heap so that no GC of the oracle's garbage runs among them.
	// Even so it moves by about a quarter between processes.
	var setups, none sample
	runtime.GC()
	for i := 0; i < coldSetups; i++ {
		db, _, et, err := b.episode(nodb.Options{}, qs, 0, &none)
		if err != nil {
			return err
		}
		setups.add(et.setup)
		if err := db.Close(); err != nil {
			return err
		}
	}
	b.inRun.Store(true)
	w := &b.win
	var eps []episodeTimes
	var perEp []sample
	n := 0
	w.start = readRuntime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.cfg.seconds) * time.Second)
	for {
		var lats sample
		db, _, et, err := b.episode(nodb.Options{}, qs, 2, &lats)
		if err != nil {
			return err
		}
		eps = append(eps, et)
		perEp = append(perEp, lats)
		n += len(lats)
		addStats(&w.statsSum, nodb.Stats{}, db.Stats())
		if time.Now().Before(deadline) {
			if err := db.Close(); err != nil {
				return err
			}
			continue
		}
		elapsed := time.Since(t0)
		w.end = readRuntime()
		w.ops = int64(n)
		b.e2e["qps"] = float64(n) / elapsed.Seconds()
		b.endMetrics(db)
		if err := db.Close(); err != nil {
			return err
		}
		break
	}
	b.e2e["setup_s"] = setups.median() / 1e3
	b.samples["setup_s"] = len(setups)
	b.episodeMetrics(eps)
	b.roundLatencies(perEp)
	return nil
}

// setUp opens and warms the workload's DB wl.reps times from the same
// raw files, each time with one cold episode over qs followed by one run
// of each warm probe, and keeps the last one. prep runs after that and
// belongs to set-up (the server start for serve-ingest); it must undo
// itself when keep is false. setup_s is the median over the repetitions.
func (b *bench) setUp(opts nodb.Options, qs []probe, passes int, warm []probe, prep func(db *nodb.DB, keep bool) error) (*nodb.DB, []*nodb.Stmt, error) {
	var eps []episodeTimes
	var setups, lats sample
	for r := 1; ; r++ {
		if opts.Sidecar.Enable {
			// Every repetition starts with no learned state on disk.
			if err := os.RemoveAll(opts.Sidecar.Dir); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		db, stmts, et, err := b.episode(opts, qs, passes, &lats)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range warm {
			rows, err := db.QueryContext(context.Background(), p.sql)
			if err != nil {
				db.Close()
				return nil, nil, fmt.Errorf("%s: %w", p.name, err)
			}
			got, err := collect(rows)
			b.check(p.name, err, got, p.want)
		}
		keep := r >= b.wl.reps
		if prep != nil {
			if err := prep(db, keep); err != nil {
				db.Close()
				return nil, nil, err
			}
		}
		setups.add(time.Since(t0))
		eps = append(eps, et)
		if keep {
			b.e2e["setup_s"] = setups.median() / 1e3
			b.samples["setup_s"] = len(setups)
			b.episodeMetrics(eps)
			return db, stmts, nil
		}
		if err := db.Close(); err != nil {
			return nil, nil, err
		}
	}
}

// runClosed is tpch-warm and tpch-budget: set-up runs the cold pass (and,
// without a cache budget, the warm-up scans), then nproc clients run a
// closed loop over the eight queries on the shared DB.
// Each client deals itself seeded shuffles of the eight and runs whole
// rounds until the window ends, so every client runs the same mix;
// warm_pass_ms is the median time of one client's round of eight.
func runClosed(b *bench) error {
	qs, warm, err := b.tpchOracle()
	if err != nil {
		return err
	}
	if b.wl.budget > 0 {
		// A budgeted cache cannot hold every column the mix reads; the
		// window measures how the engine copes with that.
		warm = nil
	}
	db, stmts, err := b.setUp(nodb.Options{CacheBudget: b.wl.budget}, qs, 1, warm, nil)
	if err != nil {
		return err
	}
	defer db.Close()

	b.inRun.Store(true)
	w := &b.win
	s0 := db.Stats()
	w.start = readRuntime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.cfg.seconds) * time.Second)
	clients := b.wl.clients()
	per := make([][]sample, clients) // per client, each round's latencies
	rounds := make([]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.cfg.seed*7919 + int64(c)))
			for time.Now().Before(deadline) {
				var lats sample
				r0 := time.Now()
				for _, k := range rng.Perm(len(stmts)) {
					d, _ := b.query(stmts[k], qs[k].name, qs[k].want)
					lats.add(d)
				}
				rounds[c].add(time.Since(r0))
				per[c] = append(per[c], lats)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	w.end = readRuntime()
	s1 := db.Stats()
	addStats(&w.statsSum, s0, s1)

	var lats []sample
	var round sample
	for c := range per {
		lats = append(lats, per[c]...)
		round = append(round, rounds[c]...)
	}
	b.timing(b.e2e, "warm_pass_ms", round)
	w.ops = int64(len(lats) * len(stmts))
	// The unbudgeted cache holds every value the mix reads, so the window
	// reads no raw tuple.
	if tuples := s1.TuplesParsed - s0.TuplesParsed; b.wl.budget == 0 && tuples != 0 {
		b.invariant("warm window parsed %d raw tuples, want 0", tuples)
	}
	b.e2e["qps"] = float64(w.ops) / elapsed.Seconds()
	b.roundLatencies(lats)
	b.endMetrics(db)
	return nil
}
