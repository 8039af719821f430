package exec

import (
	"time"

	"nodb/internal/qtrace"
)

// SpanBatch attributes per-operator time and row/batch counts to a
// qtrace.Span. The planner inserts it ONLY when the query context carries
// a profile, so the disabled path runs the exact unwrapped operator chain
// — the ≤1% overhead gate depends on that. It forwards RowBudgeter so
// LIMIT pushdown sees through it, and hands its span to a child that
// annotates its own (a guarded scan reports its access-method decision).
// The clock is read once per batch, never per row.
type SpanBatch struct {
	child BatchOperator
	sp    *qtrace.Span
	p     *qtrace.Profile
	ctr   qtrace.Counter
	hasC  bool
}

// NewSpanBatch wraps child so each Open/NextBatch is timed into sp.
func NewSpanBatch(sp *qtrace.Span, child BatchOperator) *SpanBatch {
	if a, ok := child.(qtrace.SpanSetter); ok {
		a.SetTraceSpan(sp)
	}
	return &SpanBatch{child: child, sp: sp}
}

// CountBatches also bumps ctr on p once per produced batch — the planner
// uses it to split compiled-kernel batches from generic vectorized
// batches.
func (s *SpanBatch) CountBatches(p *qtrace.Profile, ctr qtrace.Counter) *SpanBatch {
	s.p, s.ctr, s.hasC = p, ctr, true
	return s
}

// Open opens the child, attributing the time (scans lock and decide their
// access method in Open).
func (s *SpanBatch) Open() error {
	start := time.Now()
	err := s.child.Open()
	s.sp.Observe(time.Since(start), 0, 0)
	return err
}

// NextBatch pulls the child, attributing time, live rows, and batches.
func (s *SpanBatch) NextBatch() (*Batch, error) {
	start := time.Now()
	b, err := s.child.NextBatch()
	if err != nil {
		s.sp.Observe(time.Since(start), 0, 0)
		return nil, err
	}
	s.sp.Observe(time.Since(start), int64(b.Live()), 1)
	if s.hasC {
		s.p.Count(s.ctr, 1)
	}
	return b, nil
}

// Close closes the child.
func (s *SpanBatch) Close() error { return s.child.Close() }

// Columns returns the child schema.
func (s *SpanBatch) Columns() []Col { return s.child.Columns() }

// SetRowBudget forwards LIMIT pushdown to a budget-capable child.
func (s *SpanBatch) SetRowBudget(n int64) {
	if b, ok := s.child.(RowBudgeter); ok {
		b.SetRowBudget(n)
	}
}
