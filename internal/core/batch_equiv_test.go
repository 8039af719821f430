package core

import (
	"io"
	"strings"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/schema"
)

// batchEquivQueries covers every shape the vectorized pipeline handles —
// typed filter fast paths, BETWEEN/IN/LIKE/IS NULL, projection arithmetic,
// hash and sort aggregation input, ORDER BY, LIMIT truncation, and a residual (non-pushable) conjunct.
var batchEquivQueries = []string{
	"SELECT id, name FROM wide WHERE a = 3",
	"SELECT id, c FROM wide WHERE b >= 300 AND c < 150.5",
	"SELECT id, b + 1, c * 2.0 FROM wide WHERE id BETWEEN 40 AND 90",
	"SELECT id FROM wide WHERE a IN (1, 4) AND name LIKE 'name1%'",
	"SELECT id FROM wide WHERE b IS NULL",
	"SELECT count(*), sum(b), avg(c), min(d), max(name) FROM wide",
	"SELECT a, count(*), sum(c) FROM wide GROUP BY a ORDER BY a",
	"SELECT id, d FROM wide WHERE d >= date '1995-03-01' ORDER BY id DESC LIMIT 9",
	"SELECT id FROM wide WHERE 1 = 1 AND id < 25",
}

// batchLimitQueries terminate the scan early. Cumulative metrics are not
// comparable after them: how far a scan reads past a limit depends on
// batch shape and worker scheduling.
var batchLimitQueries = []string{
	"SELECT id FROM wide LIMIT 5",
	"SELECT id, name FROM wide WHERE a = 3 LIMIT 4",
}

// loadFirstResults runs queries on a load-first engine over cat — the
// conventional heap-scan engine, an independent reference for the in-situ
// scans' answers.
func loadFirstResults(t *testing.T, cat *schema.Catalog, queries []string) []*Result {
	t.Helper()
	ref := openEngine(t, cat, Options{Mode: ModeLoadFirst})
	out := make([]*Result, len(queries))
	for i, q := range queries {
		out[i] = mustQuery(t, ref, q)
	}
	return out
}

// TestBatchRowEquivalence: for every in-situ mode, cold (raw-file) and
// warm (cache/positional-map) passes must return exactly the rows the
// load-first engine returns.
func TestBatchRowEquivalence(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 700)
	queries := append(append([]string{}, batchEquivQueries...), batchLimitQueries...)
	want := loadFirstResults(t, cat, queries)
	modes := []Options{
		{Mode: ModePMCache},
		{Mode: ModePMCache, Statistics: true},
		{Mode: ModePM},
		{Mode: ModeCache},
		{Mode: ModeExternalFiles},
		{Mode: ModePMCache, CacheBudget: 1 << 14}, // eviction pressure
	}
	for _, opts := range modes {
		opts.Parallelism = 1
		e := openEngine(t, cat, opts)
		for pass := 0; pass < 2; pass++ {
			for i, q := range queries {
				if got := mustQuery(t, e, q); !rowsEqual(want[i].Rows, got.Rows) {
					t.Fatalf("mode %+v query %q (pass %d): rows differ\nload-first: %v\nin-situ:    %v",
						opts, q, pass, want[i].Rows, got.Rows)
				}
			}
		}
	}
}

// TestBatchRowEquivalenceParallel sweeps the worker counts of the
// partitioned scan: rows must match the load-first reference, and the
// adaptive structures left behind must match the sequential scan's, for
// workers 1, 2 and 8.
func TestBatchRowEquivalenceParallel(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 900)
	queries := []string{
		"SELECT id, a, b FROM wide WHERE a = 3",
		"SELECT count(*), sum(b), avg(c) FROM wide",
		"SELECT a, count(*), min(d) FROM wide GROUP BY a ORDER BY a",
	}
	ref := loadFirstResults(t, cat, queries)
	var refM TableMetrics
	for wi, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		for qi, q := range queries {
			res := mustQuery(t, e, q)
			if !rowsEqual(ref[qi].Rows, res.Rows) {
				t.Fatalf("workers %d query %q: rows differ from the load-first reference", w, q)
			}
		}
		m := e.Metrics("wide")
		if wi == 0 {
			refM = m
		} else if m != refM {
			t.Errorf("workers %d: metrics differ\nsequential: %+v\nparallel:   %+v", w, refM, m)
		}
	}
}

// TestBatchEdgeCaseCSVs runs the malformed-shape corpus (short rows,
// quotes, no trailing newline, embedded empty lines) cold and warm, with
// a read chunk small enough to split lines, against literal expected
// rows.
func TestBatchEdgeCaseCSVs(t *testing.T) {
	long := strings.Repeat("y", 300)
	null := datum.NewNull(datum.Text)
	row := func(k int64, v datum.Datum) exec.Row { return exec.Row{datum.NewInt(k), v} }
	text := datum.NewText
	cases := map[string]struct {
		content string
		rows    []exec.Row // SELECT k, v FROM edge
	}{
		"empty":              {"", nil},
		"single line":        {"1,alpha\n", []exec.Row{row(1, text("alpha"))}},
		"single no newline":  {"1,alpha", []exec.Row{row(1, text("alpha"))}},
		"no trailing":        {"1,a\n2,b\n3,c", []exec.Row{row(1, text("a")), row(2, text("b")), row(3, text("c"))}},
		"empty lines inside": {"1,a\n\n3,c\n", []exec.Row{row(1, text("a")), {datum.NewNull(datum.Int), null}, row(3, text("c"))}},
		"long lines":         {"1," + long + "\n2,short\n", []exec.Row{row(1, text(long)), row(2, text("short"))}},
		// Fields are raw bytes between delimiters: quotes are data.
		"quoted fields": {"1,\"hello world\"\n2,\"mid \"\" quote\"\n3,\"tail\n",
			[]exec.Row{row(1, text(`"hello world"`)), row(2, text(`"mid "" quote"`)), row(3, text(`"tail`))}},
		"short rows": {"1\n2,b\n3\n", []exec.Row{row(1, null), row(2, text("b")), row(3, null)}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			// Every other query's answer derives from the literal rows.
			var ge2, nulls []exec.Row
			var maxV datum.Datum = null
			for _, r := range tc.rows {
				if !r[0].Null() && r[0].Int() >= 2 {
					ge2 = append(ge2, exec.Row{r[0]})
				}
				if r[1].Null() {
					nulls = append(nulls, exec.Row{r[0]})
				} else if maxV.Null() || datum.Compare(r[1], maxV) > 0 {
					maxV = r[1]
				}
			}
			want := map[string][]exec.Row{
				"SELECT k, v FROM edge":              tc.rows,
				"SELECT k FROM edge WHERE k >= 2":    ge2,
				"SELECT count(*), max(v) FROM edge":  {{datum.NewInt(int64(len(tc.rows))), maxV}},
				"SELECT k FROM edge WHERE v IS NULL": nulls,
			}
			e := openEngine(t, edgeCatalog(t, tc.content), Options{Mode: ModePMCache, ScanChunkSize: 64})
			for pass := 0; pass < 2; pass++ {
				for _, q := range []string{
					"SELECT k, v FROM edge",
					"SELECT k FROM edge WHERE k >= 2",
					"SELECT count(*), max(v) FROM edge",
					"SELECT k FROM edge WHERE v IS NULL",
				} {
					if got := mustQuery(t, e, q); !rowsEqual(want[q], got.Rows) {
						t.Fatalf("query %q pass %d: rows differ\nwant: %v\ngot:  %v", q, pass, want[q], got.Rows)
					}
				}
			}
		})
	}
}

// TestBatchSizeSweep pins that the batch height knob never changes
// results — including degenerate one-row batches — against the load-first
// reference.
func TestBatchSizeSweep(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 300)
	queries := append(append([]string{}, batchEquivQueries...), batchLimitQueries...)
	ref := loadFirstResults(t, cat, queries)
	for _, size := range []int{0, 1, 3, 57, 4096} {
		e := openEngine(t, cat, Options{Mode: ModePMCache, BatchSize: size, Parallelism: 1})
		for pass := 0; pass < 2; pass++ {
			for i, q := range queries {
				if !rowsEqual(ref[i].Rows, mustQuery(t, e, q).Rows) {
					t.Fatalf("batch size %d query %q pass %d: rows differ", size, q, pass)
				}
			}
		}
	}
}

// TestVectorizedPlanShape pins that joins stream batches: a join's output
// leaves the plan in full batches, not one row per batch, whichever access
// method (in-situ or load-first heap scan) sits below it.
func TestVectorizedPlanShape(t *testing.T) {
	cat := buildFixture(t, t.TempDir(), 3000)
	const q = "SELECT x.id, y.c FROM wide x, wide y WHERE x.id = y.id AND x.a < 5"
	for _, opts := range []Options{{Mode: ModePMCache}, {Mode: ModeLoadFirst}} {
		e := openEngine(t, cat, opts)
		op, _, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		var rows, batches int
		for {
			b, err := op.NextBatch()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows += b.Live()
			batches++
		}
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if rows < 2*exec.DefaultBatchSize {
			t.Fatalf("mode %v: fixture too small (%d join rows)", opts.Mode, rows)
		}
		if limit := (rows+exec.DefaultBatchSize-1)/exec.DefaultBatchSize + 1; batches > limit {
			t.Errorf("mode %v: %d join rows took %d batches, want <= %d", opts.Mode, rows, batches, limit)
		}
	}
}

// TestBatchErrorPropagation: a malformed value must surface the same
// located error through the batch pipeline.
func TestBatchErrorPropagation(t *testing.T) {
	cat := edgeCatalog(t, "1,a\n2,b\nbroken,c\n4,d\n")
	for _, w := range parallelWorkerCounts {
		e := openEngine(t, cat, Options{Mode: ModePMCache, Parallelism: w})
		_, err := e.Query("SELECT k FROM edge")
		if err == nil {
			t.Fatalf("workers %d: malformed int must error through the batch path", w)
		} else if !strings.Contains(err.Error(), "row 3") {
			t.Errorf("workers %d: error should locate absolute row 3: %v", w, err)
		}
	}
}
