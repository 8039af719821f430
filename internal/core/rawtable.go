package core

import (
	"context"
	"io"

	"nodb/internal/datum"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/iofault"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/stats"
	"nodb/internal/storage"
)

// rawTable is the CSV format adapter: the in-situ state of one raw file —
// the adaptive positional map, the binary cache and on-the-fly statistics
// (all shared machinery, format.State) — plus the CSV-specific selective
// tokenize/parse access methods. It implements format.Source and
// format.Appender; the engine reaches it only through the format registry.
type rawTable struct {
	*format.State
}

// csvDriver registers the CSV engine as the "csv" format.
type csvDriver struct{}

// Caps implements format.Driver: CSV is the only built-in format the
// conventional load-first baseline can bulk-load, and its newline-aligned
// byte ranges partition for parallel cold scans.
func (csvDriver) Caps() format.Caps {
	return format.Caps{Loadable: true, Partitionable: true}
}

// Open implements format.Driver.
func (csvDriver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	return newRawTable(tbl, env), nil
}

func newRawTable(tbl *schema.Table, env format.Env) *rawTable {
	return &rawTable{State: format.NewState(tbl, env)}
}

// OpenScan implements format.Source. The returned leaf defers the access
// method choice — pure cache scan, parallel partitioned pass, or
// sequential in-situ pass — until Open, when it acquires the table lock
// and can decide against the structures as they exist at execution time
// (by then a concurrent session may already have warmed the table).
func (rt *rawTable) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.BatchOperator, error) {
	return rt.NewScan(ctx, cols, conjuncts, format.ScanPlan{
		Seq: func(ctx context.Context) exec.BatchOperator {
			return newInSituScan(ctx, rt, cols, conjuncts)
		},
		Par: func(ctx context.Context, workers int) exec.BatchOperator {
			return newParallelScan(ctx, rt, cols, conjuncts, workers)
		},
	}), nil
}

// shard returns a private view of the table for one partition worker (see
// format.State.Shard).
func (rt *rawTable) shard() *rawTable {
	return &rawTable{State: rt.State.Shard()}
}

// Append implements format.Appender: it appends literal rows to the raw
// CSV file under the exclusive table lock, so the write cannot interleave
// with a scan reading the file. The in-situ state observes the growth on
// the next query (Refresh treats growth as an append, paper §4.5). A
// failed write truncates the file back to its pre-append size, so a
// partial row never becomes a permanently torn line.
func (rt *rawTable) Append(ctx context.Context, rows [][]datum.Datum) error {
	if err := rt.Lk.Lock(ctx); err != nil {
		return err
	}
	defer rt.Lk.Unlock()
	f, err := iofault.OpenAppend(rt.Tbl.Path)
	if err != nil {
		return format.WrapFileErr(rt.Tbl.Name, err)
	}
	defer f.Close()
	if err := format.AppendGuarded(f, rt.Tbl.Name, func() error {
		w := scan.NewWriter(f, rt.Tbl.Delimiter)
		for _, row := range rows {
			if err := w.WriteDatums(row); err != nil {
				return err
			}
		}
		return w.Flush()
	}); err != nil {
		return err
	}
	if mgr := rt.Env.Sidecar; mgr != nil {
		// Journal the post-append fingerprint (exclusive lock still held),
		// so a checkpoint taken before this INSERT stays valid as a known
		// append instead of forcing a re-hash on the next open.
		mgr.JournalAppend(rt.State)
	}
	return nil
}

// loadedTable adapts a bulk-loaded heap relation to plan.Table.
type loadedTable struct {
	tbl       *schema.Table
	rel       *storage.Relation
	batchSize int
}

// Name implements plan.Table.
func (lt *loadedTable) Name() string { return lt.tbl.Name }

// Columns implements plan.Table.
func (lt *loadedTable) Columns() []schema.Column { return lt.tbl.Columns }

// Stats implements plan.Table (ANALYZE ran during load).
func (lt *loadedTable) Stats() *stats.Table { return lt.rel.Stats }

// RowCount implements plan.Table.
func (lt *loadedTable) RowCount() int64 { return lt.rel.Stats.RowCount() }

// Scan implements plan.Table: a sequential page scan that gathers the
// columns the query touches into batches, narrows each batch's selection
// conjunct by conjunct (format.NarrowSelection) and aliases the requested
// ordinals as output columns. Tuples are deformed only up to the last
// needed column, as row stores do. Cancellation is observed every 256
// tuples.
func (lt *loadedTable) Scan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.BatchOperator, error) {
	return &heapScan{ctx: ctx, lt: lt, outCols: cols, conjuncts: conjuncts,
		cols: format.OutputSchema(lt.tbl, cols), needed: format.NeededColumns(cols, conjuncts)}, nil
}

// heapScan is the batch scan of a loaded heap relation.
type heapScan struct {
	ctx       context.Context
	lt        *loadedTable
	outCols   []int
	conjuncts []expr.Expr
	cols      []exec.Col
	needed    []int

	it     *storage.Iterator
	batch  *exec.Batch // table-width columns (needed ones filled)
	out    *exec.Batch // outCols-ordered aliases of batch's columns
	selBuf []int
}

// Open starts the page scan.
func (s *heapScan) Open() error {
	maxNeeded := 0
	for _, c := range s.needed {
		if c > maxNeeded {
			maxNeeded = c
		}
	}
	s.it = s.lt.rel.Heap.ScanPrefix(maxNeeded)
	return nil
}

// NextBatch reads up to one batch of tuples and filters it.
func (s *heapScan) NextBatch() (*exec.Batch, error) {
	if s.batch == nil {
		s.batch = &exec.Batch{Cols: make([][]datum.Datum, len(s.lt.tbl.Columns))}
		s.out = &exec.Batch{Cols: make([][]datum.Datum, len(s.outCols))}
	}
	for {
		b := s.batch
		b.Reset()
		for b.N < s.lt.batchSize {
			if b.N&255 == 0 {
				if err := s.ctx.Err(); err != nil {
					return nil, err
				}
			}
			row, err := s.it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			for _, c := range s.needed {
				b.Cols[c] = append(b.Cols[c], row[c])
			}
			b.N++
		}
		if b.N == 0 {
			return nil, io.EOF
		}
		sel, live, err := format.NarrowSelection(s.conjuncts, b.Cols, b.N, &s.selBuf, nil)
		if err != nil {
			return nil, err
		}
		if live == 0 && len(s.conjuncts) > 0 {
			continue
		}
		for i, c := range s.outCols {
			s.out.Cols[i] = b.Cols[c]
		}
		s.out.N, s.out.Sel = b.N, sel
		return s.out, nil
	}
}

// Close ends the page scan.
func (s *heapScan) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// Columns implements exec.BatchOperator.
func (s *heapScan) Columns() []exec.Col { return s.cols }
