package tpch

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nodb/internal/core"
	"nodb/internal/datum"
	"nodb/internal/format"
)

// genOnce generates a tiny TPC-H instance shared by the package tests.
var genDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tpchtest")
	if err != nil {
		panic(err)
	}
	if err := Generate(dir, 0.002, 7); err != nil {
		panic(err)
	}
	genDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestGenerateDeterministic(t *testing.T) {
	dir2 := t.TempDir()
	if err := Generate(dir2, 0.002, 7); err != nil {
		t.Fatal(err)
	}
	for _, name := range TableNames() {
		a, err := os.ReadFile(filepath.Join(genDir, name+".tbl"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, name+".tbl"))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("table %s is not deterministic", name)
		}
	}
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		n++
	}
	return n
}

func TestCardinalities(t *testing.T) {
	sz := SizesAt(0.002)
	checks := map[string]int{
		"region":   sz.Region,
		"nation":   sz.Nation,
		"supplier": sz.Supplier,
		"customer": sz.Customer,
		"part":     sz.Part,
		"partsupp": sz.PartSupp,
		"orders":   sz.Orders,
	}
	for name, want := range checks {
		got := countLines(t, filepath.Join(genDir, name+".tbl"))
		if got != want {
			t.Errorf("%s rows = %d, want %d", name, got, want)
		}
	}
	// Lineitem is 1-7 rows per order.
	li := countLines(t, filepath.Join(genDir, "lineitem.tbl"))
	if li < sz.Orders || li > 7*sz.Orders {
		t.Errorf("lineitem rows = %d out of range for %d orders", li, sz.Orders)
	}
}

func TestCatalogMatchesFiles(t *testing.T) {
	cat, err := Catalog(genDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range TableNames() {
		tbl, ok := cat.Lookup(name)
		if !ok {
			t.Fatalf("table %s missing", name)
		}
		// Every data row must have exactly the declared number of fields.
		f, err := os.Open(tbl.Path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		line := 0
		for sc.Scan() && line < 50 {
			line++
			got := strings.Count(sc.Text(), "|") + 1
			if got != tbl.NumColumns() {
				t.Errorf("%s line %d: %d fields, schema says %d", name, line, got, tbl.NumColumns())
				break
			}
		}
		f.Close()
	}
}

// referenceQ6 computes Q6 directly from the raw file, independently of the
// query engine.
func referenceQ6(t *testing.T) float64 {
	t.Helper()
	f, err := os.Open(filepath.Join(genDir, "lineitem.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lo := datum.MustDate("1994-01-01").Int()
	hi := datum.MustDate("1995-01-01").Int()
	var revenue float64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "|")
		qty, _ := strconv.ParseFloat(fields[4], 64)
		price, _ := strconv.ParseFloat(fields[5], 64)
		disc, _ := strconv.ParseFloat(fields[6], 64)
		ship := datum.MustDate(fields[10]).Int()
		if ship >= lo && ship < hi && disc >= 0.05 && disc <= 0.07 && qty < 24 {
			revenue += price * disc
		}
	}
	return revenue
}

// referenceQ1 computes the Q1 group for ('A','F') directly.
func referenceQ1AF(t *testing.T) (sumQty float64, count int64) {
	t.Helper()
	f, err := os.Open(filepath.Join(genDir, "lineitem.tbl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cutoff := datum.MustDate("1998-12-01").Int() - 90
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "|")
		ship := datum.MustDate(fields[10]).Int()
		if ship > cutoff || fields[8] != "A" || fields[9] != "F" {
			continue
		}
		q, _ := strconv.ParseFloat(fields[4], 64)
		sumQty += q
		count++
	}
	return sumQty, count
}

func engineFor(t *testing.T, opts core.Options) *core.Engine {
	t.Helper()
	cat, err := Catalog(genDir)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Mode == core.ModeLoadFirst && opts.DataDir == "" {
		opts.DataDir = t.TempDir()
	}
	e, err := core.Open(cat, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestQ6AgainstReference(t *testing.T) {
	want := referenceQ6(t)
	for _, opts := range []core.Options{
		{Mode: core.ModePMCache, Statistics: true},
		{Mode: core.ModeLoadFirst},
	} {
		e := engineFor(t, opts)
		res, err := e.Query(Queries["Q6"])
		if err != nil {
			t.Fatalf("mode %v: %v", opts.Mode, err)
		}
		got := res.Rows[0][0].Float()
		if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Errorf("mode %v: Q6 = %f, want %f", opts.Mode, got, want)
		}
	}
}

func TestQ1AgainstReference(t *testing.T) {
	wantQty, wantCount := referenceQ1AF(t)
	e := engineFor(t, core.Options{Mode: core.ModePMCache, Statistics: true})
	res, err := e.Query(Queries["Q1"])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res.Rows {
		if r[0].Text() == "A" && r[1].Text() == "F" {
			found = true
			if math.Abs(r[2].Float()-wantQty) > 1e-6 {
				t.Errorf("Q1 A/F sum_qty = %v, want %f", r[2], wantQty)
			}
			if r[9].Int() != wantCount {
				t.Errorf("Q1 A/F count = %v, want %d", r[9], wantCount)
			}
		}
	}
	if !found {
		t.Error("Q1 missing A/F group")
	}
	// Groups must come out ordered by returnflag, linestatus.
	for i := 1; i < len(res.Rows); i++ {
		a := res.Rows[i-1][0].Text() + res.Rows[i-1][1].Text()
		b := res.Rows[i][0].Text() + res.Rows[i][1].Text()
		if a > b {
			t.Errorf("Q1 output not ordered: %s after %s", b, a)
		}
	}
}

// TestAllQueriesAcrossEngines runs the full Fig 10 subset on the in-situ
// and loaded engines and requires identical results.
func TestAllQueriesAcrossEngines(t *testing.T) {
	insitu := engineFor(t, core.Options{Mode: core.ModePMCache, Statistics: true})
	insituNoStats := engineFor(t, core.Options{Mode: core.ModePM})
	loaded := engineFor(t, core.Options{Mode: core.ModeLoadFirst})
	for _, name := range QueryOrder {
		q := Queries[name]
		a, err := insitu.Query(q)
		if err != nil {
			t.Fatalf("%s (in-situ): %v", name, err)
		}
		b, err := loaded.Query(q)
		if err != nil {
			t.Fatalf("%s (loaded): %v", name, err)
		}
		c, err := insituNoStats.Query(q)
		if err != nil {
			t.Fatalf("%s (pm, no stats): %v", name, err)
		}
		for _, pair := range []struct {
			label string
			other *core.Result
		}{{"loaded", b}, {"pm-nostats", c}} {
			if len(a.Rows) != len(pair.other.Rows) {
				t.Fatalf("%s vs %s: %d vs %d rows", name, pair.label, len(a.Rows), len(pair.other.Rows))
			}
			for i := range a.Rows {
				for j := range a.Rows[i] {
					x, y := a.Rows[i][j], pair.other.Rows[i][j]
					if x.Null() != y.Null() {
						t.Fatalf("%s vs %s row %d col %d: null mismatch", name, pair.label, i, j)
					}
					if x.Null() {
						continue
					}
					if x.T == datum.Float || y.T == datum.Float {
						if math.Abs(x.Float()-y.Float()) > 1e-6*math.Max(1, math.Abs(x.Float())) {
							t.Fatalf("%s vs %s row %d col %d: %v vs %v", name, pair.label, i, j, x, y)
						}
					} else if datum.Compare(x, y) != 0 {
						t.Fatalf("%s vs %s row %d col %d: %v vs %v", name, pair.label, i, j, x, y)
					}
				}
			}
		}
		if name != "Q14" && name != "Q19" && len(a.Rows) == 0 {
			t.Errorf("%s returned no rows; generator distributions too sparse?", name)
		}
	}
}

func TestSizesScale(t *testing.T) {
	small, big := SizesAt(0.001), SizesAt(0.01)
	if big.Orders != 10*small.Orders {
		t.Errorf("orders don't scale linearly: %d vs %d", small.Orders, big.Orders)
	}
	if s := SizesAt(0.0000001); s.Supplier < 1 {
		t.Error("sizes must be at least 1")
	}
}

// TestAllQueriesBatchEquivalence runs every Fig 10 query twice in three
// engine modes — the first pass cold over the raw files, the second
// exploiting whatever positional-map/cache state the mode built. The warm
// pass must return the cold pass's rows (floats within 1e-9 relative:
// statistics gathered by the cold pass may re-order joins, and with them
// the summation order), and after each pass every table's adaptive-structure
// metrics must equal the committed expectedMetrics: the execution
// pipeline may not change what the scans parse, map or cache. Every
// TPC-H LIMIT sits above an ORDER BY, so no query truncates a scan.
func TestAllQueriesBatchEquivalence(t *testing.T) {
	configs := []struct {
		label string
		opts  core.Options
	}{
		{"pm+c stats", core.Options{Mode: core.ModePMCache, Statistics: true, Parallelism: 1}},
		{"pm nostats", core.Options{Mode: core.ModePM, Parallelism: 1}},
		{"external", core.Options{Mode: core.ModeExternalFiles, Parallelism: 1}},
	}
	type key struct {
		mode  string
		pass  int
		table string
	}
	want := map[key]format.Metrics{}
	for _, em := range expectedMetrics {
		want[key{em.mode, em.pass, em.table}] = em.m
	}
	for _, cfg := range configs {
		e := engineFor(t, cfg.opts)
		cold := map[string]*core.Result{}
		for pass := 0; pass < 2; pass++ {
			for _, name := range QueryOrder {
				res, err := e.Query(Queries[name])
				if err != nil {
					t.Fatalf("%s %s pass %d: %v", cfg.label, name, pass, err)
				}
				if pass == 0 {
					cold[name] = res
					continue
				}
				a := cold[name]
				if len(a.Rows) != len(res.Rows) {
					t.Fatalf("%s %s: cold %d vs warm %d rows", cfg.label, name, len(a.Rows), len(res.Rows))
				}
				for i := range a.Rows {
					for j := range a.Rows[i] {
						x, y := a.Rows[i][j], res.Rows[i][j]
						same := x.Null() == y.Null()
						if same && !x.Null() && (x.T == datum.Float || y.T == datum.Float) {
							same = math.Abs(x.Float()-y.Float()) <= 1e-9*math.Max(1, math.Abs(x.Float()))
						} else if same && !x.Null() {
							same = datum.Compare(x, y) == 0
						}
						if !same {
							t.Fatalf("%s %s row %d col %d: cold %v vs warm %v", cfg.label, name, i, j, x, y)
						}
					}
				}
			}
			for _, tbl := range TableNames() {
				w, ok := want[key{cfg.label, pass, tbl}]
				if !ok {
					t.Fatalf("%s pass %d table %s: no expected metrics", cfg.label, pass, tbl)
				}
				if got := e.Metrics(tbl); got != w {
					t.Errorf("%s pass %d table %s: metrics differ\nwant: %+v\ngot:  %+v",
						cfg.label, pass, tbl, w, got)
				}
			}
		}
	}
}

// TestAllQueriesParallelEquivalence runs every Fig 10 query on engines that
// differ only in scan parallelism; results must be byte-identical (exact
// datum comparison — same rows, same order, same float bits, because the
// merged stream reproduces file order exactly).
func TestAllQueriesParallelEquivalence(t *testing.T) {
	pairs := []struct {
		label    string
		seq, par core.Options
	}{
		{"pm", core.Options{Mode: core.ModePM, Parallelism: 1},
			core.Options{Mode: core.ModePM, Parallelism: 8}},
		{"pm+c stats", core.Options{Mode: core.ModePMCache, Statistics: true, Parallelism: 1},
			core.Options{Mode: core.ModePMCache, Statistics: true, Parallelism: 8}},
	}
	for _, p := range pairs {
		seq := engineFor(t, p.seq)
		par := engineFor(t, p.par)
		for _, name := range QueryOrder {
			q := Queries[name]
			a, err := seq.Query(q)
			if err != nil {
				t.Fatalf("%s %s (sequential): %v", p.label, name, err)
			}
			b, err := par.Query(q)
			if err != nil {
				t.Fatalf("%s %s (parallel): %v", p.label, name, err)
			}
			if len(a.Rows) != len(b.Rows) {
				t.Fatalf("%s %s: %d vs %d rows", p.label, name, len(a.Rows), len(b.Rows))
			}
			for i := range a.Rows {
				for j := range a.Rows[i] {
					x, y := a.Rows[i][j], b.Rows[i][j]
					if x.Null() != y.Null() || (!x.Null() && datum.Compare(x, y) != 0) {
						t.Fatalf("%s %s row %d col %d: %v vs %v (must be byte-identical)",
							p.label, name, i, j, x, y)
					}
				}
			}
		}
	}
}
