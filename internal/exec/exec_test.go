package exec

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

func intCols(names ...string) []Col {
	cols := make([]Col, len(names))
	for i, n := range names {
		cols[i] = Col{Name: n, Type: datum.Int}
	}
	return cols
}

func intRows(vals ...[]int64) []Row {
	rows := make([]Row, len(vals))
	for i, vs := range vals {
		r := make(Row, len(vs))
		for j, v := range vs {
			r[j] = datum.NewInt(v)
		}
		rows[i] = r
	}
	return rows
}

func col(i int) *expr.ColRef  { return &expr.ColRef{Index: i} }
func lit(v int64) *expr.Const { return &expr.Const{D: datum.NewInt(v)} }

func TestValuesAndDrain(t *testing.T) {
	// Materialized is the in-memory batch leaf (EXPLAIN output, sort and
	// aggregation results).
	v := NewMaterialized(intCols("a"), intRows([]int64{1}, []int64{2}))
	rows, err := Drain(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 2 {
		t.Errorf("rows = %v", rows)
	}
	// Drain re-opens, so a second run works.
	rows2, err := Drain(v)
	if err != nil || len(rows2) != 2 {
		t.Error("second drain failed")
	}
}

func TestFilter(t *testing.T) {
	v := NewMaterialized(intCols("a"), intRows([]int64{1}, []int64{5}, []int64{3}, []int64{7}))
	f := NewBatchFilter(v, &expr.BinOp{Op: expr.Gt, L: col(0), R: lit(3)})
	rows, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 5 || rows[1][0].Int() != 7 {
		t.Errorf("filter rows = %v", rows)
	}
}

func TestFilterDropsNullPredicate(t *testing.T) {
	rows := []Row{
		{datum.NewNull(datum.Int)},
		{datum.NewInt(10)},
	}
	v := NewMaterialized(intCols("a"), rows)
	f := NewBatchFilter(v, &expr.BinOp{Op: expr.Gt, L: col(0), R: lit(3)})
	got, err := Drain(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].Int() != 10 {
		t.Errorf("NULL predicate must drop the row: %v", got)
	}
}

func TestProject(t *testing.T) {
	v := NewMaterialized(intCols("a", "b"), intRows([]int64{3, 4}))
	p := NewBatchProject(v,
		[]expr.Expr{&expr.BinOp{Op: expr.Add, L: col(0), R: col(1)}, col(0)},
		[]Col{{Name: "sum", Type: datum.Int}, {Name: "a", Type: datum.Int}})
	rows, err := Drain(p)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].Int() != 7 || rows[0][1].Int() != 3 {
		t.Errorf("project = %v", rows)
	}
	if p.Columns()[0].Name != "sum" {
		t.Error("schema wrong")
	}
}

func TestProjectArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched exprs/cols must panic")
		}
	}()
	NewBatchProject(NewMaterialized(nil, nil), []expr.Expr{col(0)}, nil)
}

func TestLimit(t *testing.T) {
	v := NewMaterialized(intCols("a"), intRows([]int64{1}, []int64{2}, []int64{3}))
	rows, err := Drain(NewBatchLimit(v, 2))
	if err != nil || len(rows) != 2 {
		t.Errorf("limit rows = %v err %v", rows, err)
	}
	rows, err = Drain(NewBatchLimit(v, 0))
	if err != nil || len(rows) != 0 {
		t.Errorf("limit 0 = %v", rows)
	}
	rows, err = Drain(NewBatchLimit(v, -1))
	if err != nil || len(rows) != 3 {
		t.Errorf("no limit = %v", rows)
	}
}

func TestSortAscDesc(t *testing.T) {
	v := NewMaterialized(intCols("a", "b"), intRows(
		[]int64{3, 1}, []int64{1, 2}, []int64{2, 3}, []int64{1, 1}))
	s := NewSort(v, []SortKey{{E: col(0)}, {E: col(1), Desc: true}})
	rows, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
			t.Fatalf("sort order wrong at %d: %v", i, rows)
		}
	}
}

func TestSortAgainstStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows []Row
	var vals []int64
	for i := 0; i < 500; i++ {
		v := rng.Int63n(100)
		rows = append(rows, Row{datum.NewInt(v)})
		vals = append(vals, v)
	}
	s := NewSort(NewMaterialized(intCols("a"), rows), []SortKey{{E: col(0)}})
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := range vals {
		if got[i][0].Int() != vals[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSortNullsFirst(t *testing.T) {
	rows := []Row{{datum.NewInt(1)}, {datum.NewNull(datum.Int)}, {datum.NewInt(-5)}}
	s := NewSort(NewMaterialized(intCols("a"), rows), []SortKey{{E: col(0)}})
	got, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0][0].Null() {
		t.Error("NULL must sort first ascending")
	}
}

func aggCols(n int) []Col {
	cols := make([]Col, n)
	for i := range cols {
		cols[i] = Col{Name: fmt.Sprintf("c%d", i), Type: datum.Int}
	}
	return cols
}

func TestHashAggGrouped(t *testing.T) {
	v := NewMaterialized(intCols("g", "x"), intRows(
		[]int64{1, 10}, []int64{2, 20}, []int64{1, 30}, []int64{2, 5}, []int64{3, 1}))
	agg := NewHashAgg(v,
		[]expr.Expr{col(0)},
		[]*expr.Aggregate{
			{Kind: expr.AggSum, Arg: col(1)},
			{Kind: expr.AggCountStar},
			{Kind: expr.AggMin, Arg: col(1)},
		},
		aggCols(4))
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Groups come out in first-seen order: 1, 2, 3.
	checks := map[int64][3]int64{1: {40, 2, 10}, 2: {25, 2, 5}, 3: {1, 1, 1}}
	for _, r := range rows {
		w := checks[r[0].Int()]
		if r[1].Int() != w[0] || r[2].Int() != w[1] || r[3].Int() != w[2] {
			t.Errorf("group %v = %v, want %v", r[0], r[1:], w)
		}
	}
	if rows[0][0].Int() != 1 || rows[1][0].Int() != 2 || rows[2][0].Int() != 3 {
		t.Error("first-seen order violated")
	}
}

func TestHashAggGlobalEmptyInput(t *testing.T) {
	v := NewMaterialized(intCols("x"), nil)
	agg := NewHashAgg(v, nil,
		[]*expr.Aggregate{{Kind: expr.AggCountStar}, {Kind: expr.AggSum, Arg: col(0)}},
		aggCols(2))
	rows, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("global agg over empty input must yield one row, got %d", len(rows))
	}
	if rows[0][0].Int() != 0 || !rows[0][1].Null() {
		t.Errorf("empty global agg = %v", rows[0])
	}
}

func TestHashAggNullGroupKeys(t *testing.T) {
	rows := []Row{
		{datum.NewNull(datum.Int), datum.NewInt(1)},
		{datum.NewNull(datum.Int), datum.NewInt(2)},
		{datum.NewInt(7), datum.NewInt(3)},
	}
	agg := NewHashAgg(NewMaterialized(intCols("g", "x"), rows),
		[]expr.Expr{col(0)},
		[]*expr.Aggregate{{Kind: expr.AggSum, Arg: col(1)}},
		aggCols(2))
	got, err := Drain(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("NULLs must group together: %d groups", len(got))
	}
}

func TestSortAggMatchesHashAgg(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var rows []Row
	for i := 0; i < 2000; i++ {
		g := rng.Int63n(20)
		x := rng.Int63n(1000)
		rows = append(rows, Row{datum.NewInt(g), datum.NewInt(x)})
	}
	groupBy := []expr.Expr{col(0)}
	aggs := func() []*expr.Aggregate {
		return []*expr.Aggregate{
			{Kind: expr.AggSum, Arg: col(1)},
			{Kind: expr.AggAvg, Arg: col(1)},
			{Kind: expr.AggMax, Arg: col(1)},
			{Kind: expr.AggCountStar},
		}
	}
	h := NewHashAgg(NewMaterialized(intCols("g", "x"), rows), groupBy, aggs(), aggCols(5))
	s := NewSortAgg(NewMaterialized(intCols("g", "x"), rows), groupBy, aggs(), aggCols(5))
	hr, err := Drain(h)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Drain(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr) != len(sr) {
		t.Fatalf("group counts differ: %d vs %d", len(hr), len(sr))
	}
	index := func(rows []Row) map[int64]Row {
		m := map[int64]Row{}
		for _, r := range rows {
			m[r[0].Int()] = r
		}
		return m
	}
	hm, sm := index(hr), index(sr)
	for g, r := range hm {
		o := sm[g]
		if o == nil {
			t.Fatalf("group %d missing in sortagg", g)
		}
		for i := range r {
			if datum.Compare(r[i], o[i]) != 0 {
				t.Fatalf("group %d col %d: %v vs %v", g, i, r[i], o[i])
			}
		}
	}
}

func TestHashJoin(t *testing.T) {
	left := NewMaterialized(intCols("id", "lv"), intRows(
		[]int64{1, 100}, []int64{2, 200}, []int64{3, 300}))
	right := NewMaterialized(intCols("fk", "rv"), intRows(
		[]int64{2, 7}, []int64{3, 8}, []int64{3, 9}, []int64{4, 10}))
	j := NewHashJoin(left, right, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: (2,200)x(2,7), (3,300)x(3,8), (3,300)x(3,9).
	if len(rows) != 3 {
		t.Fatalf("join rows = %d: %v", len(rows), rows)
	}
	for _, r := range rows {
		if r[0].Int() != r[2].Int() {
			t.Errorf("join key mismatch in %v", r)
		}
	}
	if len(j.Columns()) != 4 {
		t.Errorf("join schema width = %d", len(j.Columns()))
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := NewMaterialized(intCols("id"), []Row{{datum.NewNull(datum.Int)}, {datum.NewInt(1)}})
	right := NewMaterialized(intCols("fk"), []Row{{datum.NewNull(datum.Int)}, {datum.NewInt(1)}})
	j := NewHashJoin(left, right, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Errorf("NULL keys must not join: %v", rows)
	}
}

func TestHashJoinEmptySides(t *testing.T) {
	empty := NewMaterialized(intCols("a"), nil)
	full := NewMaterialized(intCols("a"), intRows([]int64{1}))
	j := NewHashJoin(empty, full, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err := Drain(j)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty build join = %v err %v", rows, err)
	}
	j2 := NewHashJoin(full, empty, []expr.Expr{col(0)}, []expr.Expr{col(0)})
	rows, err = Drain(j2)
	if err != nil || len(rows) != 0 {
		t.Errorf("empty probe join = %v err %v", rows, err)
	}
}

func TestHashJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var lrows, rrows []Row
	for i := 0; i < 300; i++ {
		lrows = append(lrows, Row{datum.NewInt(rng.Int63n(50)), datum.NewInt(int64(i))})
	}
	for i := 0; i < 300; i++ {
		rrows = append(rrows, Row{datum.NewInt(rng.Int63n(50)), datum.NewInt(int64(i))})
	}
	// Reference nested loop in the join's output order: probe order, then
	// build insertion order within each key. The output (~1800 rows)
	// spans several output batches.
	var want []Row
	for _, r := range rrows {
		for _, l := range lrows {
			if l[0].Int() == r[0].Int() {
				want = append(want, append(CloneRow(l), r...))
			}
		}
	}
	for _, size := range []int{1, 7, 300} {
		j := NewHashJoin(
			chunked(intCols("k", "l"), lrows, size),
			chunked(intCols("k", "r"), rrows, size),
			[]expr.Expr{col(0)}, []expr.Expr{col(0)})
		got, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("join size %d", size), want, got)
	}
}

func TestCount(t *testing.T) {
	v := NewMaterialized(intCols("a"), intRows([]int64{1}, []int64{2}))
	n, err := Count(v)
	if err != nil || n != 2 {
		t.Errorf("Count = %d err %v", n, err)
	}
}

func TestOrderedBatchSource(t *testing.T) {
	cols := []Col{{Name: "x", Type: datum.Int}}
	mkBatch := func(vals ...int) *Batch {
		b := NewBatch(1, len(vals))
		for _, v := range vals {
			b.Cols[0] = append(b.Cols[0], datum.NewInt(int64(v)))
		}
		b.N = len(vals)
		return b
	}
	var finished int
	src := NewOrderedBatchSource(cols,
		func() ([]<-chan BatchMsg, error) {
			// Three producers finishing out of order; partition order must
			// still come out.
			chans := make([]chan BatchMsg, 3)
			for i := range chans {
				chans[i] = make(chan BatchMsg, 2)
			}
			go func() {
				chans[2] <- BatchMsg{B: mkBatch(5, 6)}
				close(chans[2])
				chans[0] <- BatchMsg{B: mkBatch(0, 1)}
				chans[0] <- BatchMsg{B: mkBatch(2)}
				close(chans[0])
				chans[1] <- BatchMsg{B: mkBatch(3, 4)}
				close(chans[1])
			}()
			out := make([]<-chan BatchMsg, 3)
			for i, c := range chans {
				out[i] = c
			}
			return out, nil
		},
		func() error { finished++; return nil },
		nil)
	if src.Columns()[0].Name != "x" {
		t.Fatal("columns lost")
	}
	rows, err := Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != int64(i) {
			t.Fatalf("row %d = %v (order broken)", i, r)
		}
	}
	if finished != 1 {
		t.Errorf("finish ran %d times", finished)
	}
	// EOF is sticky and does not re-run finish.
	if _, err := src.NextBatch(); err != io.EOF {
		t.Errorf("second EOF = %v", err)
	}
	if finished != 1 {
		t.Errorf("finish re-ran: %d", finished)
	}
}

func TestOrderedBatchSourceError(t *testing.T) {
	boom := fmt.Errorf("boom")
	var stopped, finished bool
	src := NewOrderedBatchSource(nil,
		func() ([]<-chan BatchMsg, error) {
			one := NewBatch(1, 1)
			one.Cols[0] = append(one.Cols[0], datum.NewInt(1))
			one.N = 1
			ch := make(chan BatchMsg, 2)
			ch <- BatchMsg{B: one}
			ch <- BatchMsg{Err: boom}
			close(ch)
			return []<-chan BatchMsg{ch}, nil
		},
		func() error { finished = true; return nil },
		func() error { stopped = true; return nil })
	_, err := Drain(src)
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if finished {
		t.Error("finish must not run after an error")
	}
	if !stopped {
		t.Error("stop must run on Close")
	}
}
