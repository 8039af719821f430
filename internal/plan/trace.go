package plan

import (
	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// Span wiring: when the execution context carries a qtrace.Profile, the
// binder wraps each operator it assembles so per-operator time and
// row/batch counts attribute to a span tree mirroring the plan shape.
// With no profile every helper returns the operator untouched — the
// disabled path assembles the exact same chain as before this layer
// existed, preserving both the overhead gate and RowBudgeter pushdown.

// spanScan wraps a scan leaf, returning the leaf's span for parent
// construction.
func (bi *binder) spanScan(label string, op exec.BatchOperator) (exec.BatchOperator, *qtrace.Span) {
	if bi.prof == nil {
		return op, nil
	}
	sp := qtrace.NewSpan(label)
	return exec.NewSpanBatch(sp, op), sp
}

// spanBatch wraps an operator with a span over the given children. When
// counted, produced batches also bump ctr on the profile — the
// kernel-versus-generic vectorized split.
func (bi *binder) spanBatch(label string, op exec.BatchOperator, ctr qtrace.Counter, counted bool, children ...*qtrace.Span) exec.BatchOperator {
	if bi.prof == nil {
		return op
	}
	bi.curSpan = qtrace.NewSpan(label, compactSpans(children)...)
	sb := exec.NewSpanBatch(bi.curSpan, op)
	if counted {
		sb.CountBatches(bi.prof, ctr)
	}
	return sb
}

// compactSpans drops nil children (a child assembled before profiling
// decisions never has a span).
func compactSpans(spans []*qtrace.Span) []*qtrace.Span {
	out := spans[:0]
	for _, sp := range spans {
		if sp != nil {
			out = append(out, sp)
		}
	}
	return out
}
