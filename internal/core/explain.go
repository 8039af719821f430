package core

import (
	"context"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// planExplain implements EXPLAIN [ANALYZE]: plan the wrapped SELECT under
// a fresh profile so the binder assembles the operator-span tree, run it
// to completion when ANALYZE was requested, and return the rendered
// profile as a one-text-column rowset. Plain EXPLAIN never opens the
// plan — the span tree alone describes its shape.
//
// The wrapped statement runs under its own profile even when the caller's
// context already carries one: EXPLAIN ANALYZE reports exactly one
// execution, not the accumulated history of the enclosing query.
func (p *Prepared) planExplain(ctx context.Context, params []datum.Datum, named map[string]datum.Datum) (exec.BatchOperator, []exec.Col, error) {
	prof := qtrace.New(p.sel.String())
	root, _, err := p.planSelect(qtrace.NewContext(ctx, prof), params, named)
	if err != nil {
		return nil, nil, err
	}
	if p.explAnalyze {
		endExec := prof.Enter(qtrace.PhaseExecute)
		n, err := exec.Count(root)
		endExec()
		if err != nil {
			return nil, nil, err
		}
		prof.Count(qtrace.CtrRowsOut, n)
	}
	prof.Finish()
	lines := prof.Snapshot().RenderText(p.explAnalyze)
	cols := []exec.Col{{Name: "query plan", Type: datum.Text}}
	rows := make([]exec.Row, len(lines))
	for i, l := range lines {
		rows[i] = exec.Row{datum.NewText(l)}
	}
	return exec.NewMaterialized(cols, rows), cols, nil
}
