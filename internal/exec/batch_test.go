package exec

import (
	"io"
	"math/rand"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// chunks is a test leaf emitting rows in batches of a fixed size, so the
// operators above see batch boundaries anywhere.
type chunks struct {
	cols []Col
	rows []Row
	size int
	i    int
}

func chunked(cols []Col, rows []Row, size int) *chunks {
	return &chunks{cols: cols, rows: rows, size: size}
}

func (c *chunks) Open() error { c.i = 0; return nil }

func (c *chunks) NextBatch() (*Batch, error) {
	if c.i >= len(c.rows) {
		return nil, io.EOF
	}
	b := NewBatch(len(c.cols), c.size)
	for ; c.i < len(c.rows) && b.N < c.size; c.i++ {
		b.AppendRow(c.rows[c.i])
	}
	return b, nil
}

func (c *chunks) Close() error   { return nil }
func (c *chunks) Columns() []Col { return c.cols }

var randomCols = []Col{
	{Name: "i", Type: datum.Int},
	{Name: "f", Type: datum.Float},
	{Name: "s", Type: datum.Text},
	{Name: "d", Type: datum.Date},
}

// randomRows builds (int, float, text, date) rows with NULLs sprinkled in.
func randomRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		r := Row{
			datum.NewInt(int64(rng.Intn(100))),
			datum.NewFloat(float64(rng.Intn(1000)) / 8),
			datum.NewText(string(rune('a' + rng.Intn(26)))),
			datum.NewDate(int64(rng.Intn(3650))),
		}
		if rng.Intn(7) == 0 {
			r[rng.Intn(4)] = datum.NewNull(randomCols[rng.Intn(4)].Type)
		}
		rows[i] = r
	}
	return rows
}

func sameRows(t *testing.T, label string, a, b []Row) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rows", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.Null() != y.Null() || (!x.Null() && datum.Compare(x, y) != 0) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, x, y)
			}
		}
	}
}

// TestBatchPipelineMatchesRows runs filter+project+limit over batches of
// every size and requires the output of a tuple-at-a-time reference
// evaluation (scalar Eval over each row).
func TestBatchPipelineMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pred := &expr.BinOp{Op: expr.And,
		L: &expr.BinOp{Op: expr.Lt, L: &expr.ColRef{Index: 0, Type: datum.Int}, R: &expr.Const{D: datum.NewInt(70)}},
		R: &expr.BinOp{Op: expr.Ge, L: &expr.ColRef{Index: 1, Type: datum.Float}, R: &expr.Const{D: datum.NewFloat(20)}},
	}
	projExprs := []expr.Expr{
		&expr.BinOp{Op: expr.Add, L: &expr.ColRef{Index: 0}, R: &expr.Const{D: datum.NewInt(5)}},
		&expr.ColRef{Index: 2},
		&expr.BinOp{Op: expr.Mul, L: &expr.ColRef{Index: 1}, R: &expr.ColRef{Index: 1}},
	}
	projCols := []Col{{Name: "i5", Type: datum.Int}, {Name: "s", Type: datum.Text}, {Name: "ff", Type: datum.Float}}
	for _, limit := range []int64{-1, 0, 7, 1000} {
		rows := randomRows(rng, 500)
		var want []Row
		for _, r := range rows {
			if limit >= 0 && int64(len(want)) >= limit {
				break
			}
			ok, err := expr.TruthyResult(pred, r)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			out := make(Row, len(projExprs))
			for i, e := range projExprs {
				if out[i], err = e.Eval(r); err != nil {
					t.Fatal(err)
				}
			}
			want = append(want, out)
		}

		for _, size := range []int{1, 3, 64, 2048} {
			var b BatchOperator = chunked(randomCols, rows, size)
			b = NewBatchProject(NewBatchFilter(b, pred), projExprs, projCols)
			if limit >= 0 {
				b = NewBatchLimit(b, limit)
			}
			got, err := Drain(b)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "limit/size", want, got)
			// And through the row cursor.
			cur := NewCursor(b)
			if err := cur.Open(); err != nil {
				t.Fatal(err)
			}
			var got2 []Row
			for {
				r, err := cur.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got2 = append(got2, CloneRow(r))
			}
			cur.Close()
			sameRows(t, "cursor", want, got2)
		}
	}
}

// TestBatchHashAggMatchesRows compares the vectorized hash aggregation
// against per-row aggregate states, for grouped and global aggregates.
func TestBatchHashAggMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	groupBy := []expr.Expr{&expr.ColRef{Index: 2, Type: datum.Text}}
	aggs := []*expr.Aggregate{
		{Kind: expr.AggCountStar},
		{Kind: expr.AggSum, Arg: &expr.ColRef{Index: 0}},
		{Kind: expr.AggMin, Arg: &expr.ColRef{Index: 1}},
	}
	cols := []Col{{Name: "g"}, {Name: "n"}, {Name: "s"}, {Name: "m"}}
	for _, grouped := range []bool{true, false} {
		gb := groupBy
		outCols := cols
		if !grouped {
			gb = nil
			outCols = cols[1:]
		}
		rows := randomRows(rng, 400)
		// Reference: groups in first-seen order, states fed row by row.
		type group struct {
			key    Row
			states []*expr.AggState
		}
		var groups []*group
		for _, r := range rows {
			var key Row
			if grouped {
				key = Row{r[2]}
			}
			var g *group
			for _, c := range groups {
				if groupKeyEqual(c.key, key) {
					g = c
				}
			}
			if g == nil {
				g = &group{key: key}
				for _, a := range aggs {
					g.states = append(g.states, expr.NewAggState(a.Kind))
				}
				groups = append(groups, g)
			}
			g.states[0].Add(datum.NewBool(true))
			g.states[1].Add(r[0])
			g.states[2].Add(r[1])
		}
		var want []Row
		for _, g := range groups {
			out := append(Row{}, g.key...)
			for _, s := range g.states {
				out = append(out, s.Result())
			}
			want = append(want, out)
		}
		got, err := Drain(NewHashAgg(chunked(randomCols, rows, 32), gb, aggs, outCols))
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "hashagg", want, got)
	}
}

// TestBatchLimitAcrossBatches checks limits landing inside, between, and
// beyond batches, including over a selection vector.
func TestBatchLimitAcrossBatches(t *testing.T) {
	rows := randomRows(rand.New(rand.NewSource(5)), 100)
	pred := &expr.BinOp{Op: expr.Ge, L: &expr.ColRef{Index: 0}, R: &expr.Const{D: datum.NewInt(30)}}
	var want []Row
	for _, r := range rows {
		if ok, _ := expr.TruthyResult(pred, r); ok && len(want) < 13 {
			want = append(want, r)
		}
	}
	got, err := Drain(NewBatchLimit(NewBatchFilter(chunked(randomCols, rows, 8), pred), 13))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "limit-sel", want, got)
}
