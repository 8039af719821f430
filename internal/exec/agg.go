package exec

import (
	"sort"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// aggSpec is shared by the hash and sort aggregation operators: group-by
// expressions followed by aggregate calls. The output row layout is
// [group values..., aggregate results...].
type aggSpec struct {
	child   BatchOperator
	groupBy []expr.Expr
	aggs    []*expr.Aggregate
	cols    []Col
	out     Materialized // the finished groups
}

func (a *aggSpec) newStates() []*expr.AggState {
	states := make([]*expr.AggState, len(a.aggs))
	for i, ag := range a.aggs {
		if ag.Distinct {
			states[i] = expr.NewDistinctAggState(ag.Kind)
		} else {
			states[i] = expr.NewAggState(ag.Kind)
		}
	}
	return states
}

func (a *aggSpec) resultRow(group Row, states []*expr.AggState) Row {
	out := make(Row, 0, len(group)+len(states))
	out = append(out, group...)
	for _, s := range states {
		out = append(out, s.Result())
	}
	return out
}

// countsRows reports whether aggregate i counts rows rather than values.
func (a *aggSpec) countsRows(i int) bool {
	return a.aggs[i].Kind == expr.AggCountStar || a.aggs[i].Arg == nil
}

// drainInput evaluates the grouping keys and aggregate arguments
// column-at-a-time over every input batch (expr.EvalBatch, once per batch
// per expression) and hands fn each batch with its key and argument
// vectors; only the per-row grouping work remains in fn. Aggregates that
// count rows get no argument vector.
func (a *aggSpec) drainInput(fn func(b *Batch, keys, args [][]datum.Datum)) error {
	keyScratch := make([][]datum.Datum, len(a.groupBy))
	argScratch := make([][]datum.Datum, len(a.aggs))
	keys := make([][]datum.Datum, len(a.groupBy))
	args := make([][]datum.Datum, len(a.aggs))
	return drainChild(a.child, func(b *Batch) error {
		var err error
		for gi, g := range a.groupBy {
			if keys[gi], err = evalVec(g, b, &keyScratch[gi]); err != nil {
				return err
			}
		}
		for ai, ag := range a.aggs {
			if a.countsRows(ai) {
				continue
			}
			if args[ai], err = evalVec(ag.Arg, b, &argScratch[ai]); err != nil {
				return err
			}
		}
		fn(b, keys, args)
		return nil
	})
}

// feed adds position pos of the argument vectors to states.
func (a *aggSpec) feed(states []*expr.AggState, args [][]datum.Datum, pos int) {
	for i := range a.aggs {
		if a.countsRows(i) {
			states[i].Add(datum.NewBool(true))
			continue
		}
		states[i].Add(args[i][pos])
	}
}

// NextBatch emits the next batch of finished groups.
func (a *aggSpec) NextBatch() (*Batch, error) { return a.out.NextBatch() }

// Close releases the buffered groups.
func (a *aggSpec) Close() error {
	a.out.rows = nil
	return nil
}

// Columns returns the [group..., aggregates...] schema.
func (a *aggSpec) Columns() []Col { return a.cols }

// HashAgg groups rows with a hash table — the plan a cost-based optimizer
// picks when the estimated number of groups is modest.
type HashAgg struct {
	aggSpec
	// SizeHint pre-sizes the hash table (a statistics-driven optimization;
	// see Fig 12). Zero means no hint.
	SizeHint int

	groups map[uint64][]*hashGroup
	order  []*hashGroup // emission in first-seen order
}

type hashGroup struct {
	key    Row
	states []*expr.AggState
}

// NewHashAgg builds a hash aggregation operator.
func NewHashAgg(child BatchOperator, groupBy []expr.Expr, aggs []*expr.Aggregate, cols []Col) *HashAgg {
	return &HashAgg{aggSpec: aggSpec{child: child, groupBy: groupBy, aggs: aggs, cols: cols,
		out: Materialized{cols: cols}}}
}

// Open consumes the input and builds all groups: grouping keys and
// aggregate arguments evaluate once per batch per expression, and only the
// hash probe and state update remain per row. A global aggregate (no
// GROUP BY) has exactly one group and skips the probe entirely.
func (h *HashAgg) Open() error {
	size := 64
	if h.SizeHint > 0 {
		size = h.SizeHint
	}
	h.groups = make(map[uint64][]*hashGroup, size)
	h.order = h.order[:0]

	var global *hashGroup
	if len(h.groupBy) == 0 {
		global = &hashGroup{key: Row{}, states: h.newStates()}
		h.order = append(h.order, global)
	}
	keyBuf := make(Row, len(h.groupBy))
	err := h.drainInput(func(b *Batch, keys, args [][]datum.Datum) {
		b.forLive(func(_, pos int) {
			g := global
			if g == nil {
				for gi := range keys {
					keyBuf[gi] = keys[gi][pos]
				}
				g = h.findOrCreate(keyBuf)
			}
			h.feed(g.states, args, pos)
		})
	})
	if err != nil {
		return err
	}
	rows := make([]Row, len(h.order))
	for i, g := range h.order {
		rows[i] = h.resultRow(g.key, g.states)
	}
	h.groups, h.order = nil, nil
	h.out.rows = rows
	return h.out.Open()
}

func (h *HashAgg) findOrCreate(key Row) *hashGroup {
	hash := hashKey(key)
	for _, g := range h.groups[hash] {
		if groupKeyEqual(g.key, key) {
			return g
		}
	}
	g := &hashGroup{key: CloneRow(key), states: h.newStates()}
	h.groups[hash] = append(h.groups[hash], g)
	h.order = append(h.order, g)
	return g
}

// groupKeyEqual treats NULLs as equal (SQL GROUP BY semantics).
func groupKeyEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if datum.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// SortAgg groups rows by sorting on the grouping key and emitting a group
// whenever the key changes. Used by the optimizer when statistics are
// unavailable and it must assume many groups (the conservative plan whose
// cost Fig 12 exposes).
type SortAgg struct {
	aggSpec
}

// NewSortAgg builds a sort-based aggregation operator.
func NewSortAgg(child BatchOperator, groupBy []expr.Expr, aggs []*expr.Aggregate, cols []Col) *SortAgg {
	return &SortAgg{aggSpec{child: child, groupBy: groupBy, aggs: aggs, cols: cols,
		out: Materialized{cols: cols}}}
}

// Open materializes the keys and arguments of every input row, sorts by
// the grouping key, and folds runs into groups.
func (s *SortAgg) Open() error {
	type keyed struct {
		key Row
		idx int // input position in argCols
	}
	var items []keyed
	argCols := make([][]datum.Datum, len(s.aggs)) // every input row's arguments
	err := s.drainInput(func(b *Batch, keys, args [][]datum.Datum) {
		b.forLive(func(_, pos int) {
			it := keyed{key: make(Row, len(keys)), idx: len(items)}
			for gi := range keys {
				it.key[gi] = keys[gi][pos]
			}
			for ai := range args {
				if !s.countsRows(ai) {
					argCols[ai] = append(argCols[ai], args[ai][pos])
				}
			}
			items = append(items, it)
		})
	})
	if err != nil {
		return err
	}
	sort.SliceStable(items, func(a, b int) bool {
		for i := range items[a].key {
			c := datum.Compare(items[a].key[i], items[b].key[i])
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	var rows []Row
	var curKey Row
	var states []*expr.AggState
	for _, it := range items {
		if states == nil || !groupKeyEqual(curKey, it.key) {
			if states != nil {
				rows = append(rows, s.resultRow(curKey, states))
			}
			curKey = it.key
			states = s.newStates()
		}
		s.feed(states, argCols, it.idx)
	}
	if states != nil {
		rows = append(rows, s.resultRow(curKey, states))
	}
	if len(s.groupBy) == 0 && len(rows) == 0 {
		rows = append(rows, s.resultRow(Row{}, s.newStates()))
	}
	s.out.rows = rows
	return s.out.Open()
}
