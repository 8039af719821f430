package core

import (
	"context"
	"strings"
	"testing"

	"nodb/internal/exec"
	"nodb/internal/qtrace"
	"nodb/internal/tpch"
)

// benchWarmEngine opens an engine over a fixture table and runs one
// warming query so that every column the benchmark touches is fully
// cached — the scans under measurement then take the cacheScan path (the
// paper's third-epoch optimal regime, Fig 6).
func benchWarmEngine(tb testing.TB, rows int) *Engine {
	tb.Helper()
	cat := buildFixture(tb, tb.TempDir(), rows)
	e, err := Open(cat, Options{Mode: ModePMCache, Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	if _, err := e.Query("SELECT id, a, b, c, name, d FROM wide"); err != nil {
		tb.Fatal(err)
	}
	return e
}

// drainQuery streams a prepared query to completion without materializing
// results, returning the row count.
func drainQuery(tb testing.TB, e *Engine, sql string) int64 {
	tb.Helper()
	op, _, err := e.Prepare(sql)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := exec.Count(op)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// benchQueries are the warm-scan shapes the benchmark sweeps: a selective
// filter+project, a near-pass-through filter, and a grouped aggregation.
var benchQueries = []struct{ name, sql string }{
	{"FilterProject", "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"},
	{"WideFilter", "SELECT id, c FROM wide WHERE id >= 0"},
	{"Agg", "SELECT a, count(*), sum(c) FROM wide GROUP BY a"},
}

// BenchmarkWarmScanBatch measures the batch pipeline over a fully cached
// table:
//
//	go test -bench BenchmarkWarmScanBatch ./internal/core/
func BenchmarkWarmScanBatch(b *testing.B) {
	for _, q := range benchQueries {
		b.Run(q.name, func(b *testing.B) {
			const rows = 20_000
			e := benchWarmEngine(b, rows)
			drainQuery(b, e, q.sql) // one untimed run: plans warm, caches verified
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainQuery(b, e, q.sql)
			}
			b.StopTimer()
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// TestWarmBatchCounts is the deterministic gate on batch-at-a-time
// execution: over warm (fully cached) TPC-H tables, every scan, join and
// aggregation node of every Fig 10 query must process at most
// ceil(rows/BatchSize)+1 batches — rows being the table's row count for a
// scan (a cache scan reads every row and filters by selection vector) and
// the node's output rows for a join or aggregation. A node that handed
// rows on one at a time, or flushed a batch per input batch, fails it.
func TestWarmBatchCounts(t *testing.T) {
	dir := t.TempDir()
	if err := tpch.Generate(dir, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	cat, err := tpch.Catalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := openEngine(t, cat, Options{Mode: ModePMCache, Statistics: true, Parallelism: 1})
	// Predicate-free scans cache every column in full, so every scan of
	// the queries below is served from the cache.
	for _, tbl := range tpch.TableNames() {
		mustQuery(t, e, "SELECT * FROM "+tbl)
	}
	bound := func(rows int64) int64 {
		return (rows+exec.DefaultBatchSize-1)/exec.DefaultBatchSize + 1
	}
	var check func(name string, sp qtrace.SpanInfo)
	check = func(name string, sp qtrace.SpanInfo) {
		var rows int64
		switch {
		case strings.HasPrefix(sp.Label, "scan "):
			rows = e.Metrics(strings.TrimPrefix(sp.Label, "scan ")).Rows
			if !strings.Contains(sp.Detail, "access=cache") {
				t.Errorf("%s: %s is not warm (%s)", name, sp.Label, sp.Detail)
			}
		case strings.HasSuffix(sp.Label, "join"), strings.HasSuffix(sp.Label, "aggregate"):
			rows = sp.Rows
		default:
			rows = -1
		}
		if rows >= 0 && sp.Batches > bound(rows) {
			t.Errorf("%s: %s processed %d batches for %d rows, want <= %d",
				name, sp.Label, sp.Batches, rows, bound(rows))
		}
		for _, c := range sp.Children {
			check(name, c)
		}
	}
	for _, name := range tpch.QueryOrder {
		p, err := e.PrepareStmt(tpch.Queries[name])
		if err != nil {
			t.Fatal(err)
		}
		prof := qtrace.New(name)
		op, _, err := p.Plan(qtrace.NewContext(context.Background(), prof), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Count(op); err != nil {
			t.Fatal(err)
		}
		prof.Finish()
		snap := prof.Snapshot()
		if snap.Plan == nil {
			t.Fatalf("%s: no operator tree", name)
		}
		check(name, *snap.Plan)
	}
}
