// Package exec implements the batch-at-a-time execution engine: filter,
// project, sort, limit, hash aggregation, sort aggregation and hash join
// operators over column-major batches of datums (BatchOperator). Every
// access method produces batches natively, and every operator consumes
// and produces them, from the scan leaves up to the client: the only row
// view is the gather Cursor that Drain, Count and the public result
// cursors read through.
//
// The same operators execute over every access method — in-situ raw-file
// scans, cached binary columns and loaded heap files — mirroring how
// PostgresRaw reuses the unmodified PostgreSQL executor above its raw-file
// scan operator (paper §4.1: "the remaining query plan ... works without
// changes").
package exec

import (
	"io"
	"sort"

	"nodb/internal/datum"
	"nodb/internal/expr"
)

// Row is one gathered tuple (Cursor, Drain, and the operators that buffer
// their input). Cursor reuses its backing array between Next calls;
// callers that retain rows must copy.
type Row = []datum.Datum

// Col describes one output column of an operator.
type Col struct {
	Name string
	Type datum.Type
}

// CloneRow copies a row so it survives producer reuse.
func CloneRow(r Row) Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Cursor is the row view of a batch pipeline: it gathers the live rows of
// each batch one at a time, for consumers that hand rows to a client.
type Cursor struct {
	child BatchOperator
	b     *Batch
	k     int
	buf   Row
}

// NewCursor wraps a batch pipeline in a row cursor.
func NewCursor(child BatchOperator) *Cursor {
	return &Cursor{child: child, buf: make(Row, len(child.Columns()))}
}

// Open opens the pipeline.
func (c *Cursor) Open() error {
	c.b, c.k = nil, 0
	return c.child.Open()
}

// Next gathers the next live row; it returns io.EOF at the end of the
// stream. The returned row is reused by the next call.
func (c *Cursor) Next() (Row, error) {
	for c.b == nil || c.k >= c.b.Live() {
		b, err := c.child.NextBatch()
		if err != nil {
			return nil, err
		}
		c.b, c.k = b, 0
	}
	if len(c.buf) < len(c.b.Cols) {
		// Producers may carry more columns than the declared schema (or a
		// nil schema in tests); size the gather buffer from the data.
		c.buf = make(Row, len(c.b.Cols))
	}
	r := c.b.Row(c.k, c.buf)
	c.k++
	return r, nil
}

// Close closes the pipeline.
func (c *Cursor) Close() error { return c.child.Close() }

// Columns returns the pipeline schema.
func (c *Cursor) Columns() []Col { return c.child.Columns() }

// Drain runs a pipeline to completion and returns all live rows (copied).
// It opens and closes the operator.
func Drain(op BatchOperator) ([]Row, error) {
	var out []Row
	err := drainChild(op, func(b *Batch) error {
		for k := 0; k < b.Live(); k++ {
			out = append(out, b.Row(k, make(Row, len(b.Cols))))
		}
		return nil
	})
	return out, err
}

// Count runs a pipeline to completion, returning only the live row count
// (whole batches are counted without gathering rows).
func Count(op BatchOperator) (int64, error) {
	var n int64
	err := drainChild(op, func(b *Batch) error {
		n += int64(b.Live())
		return nil
	})
	return n, err
}

// Materialized emits a fixed row set as batches — the output stage of the
// operators that must see their whole input first (sort, aggregation), and
// the leaf for small in-memory results (EXPLAIN's rendered plan).
type Materialized struct {
	cols []Col
	rows []Row
	i    int
	b    *Batch
}

// NewMaterialized creates a batch source over rows (not copied).
func NewMaterialized(cols []Col, rows []Row) *Materialized {
	return &Materialized{cols: cols, rows: rows}
}

// Open rewinds to the first row.
func (m *Materialized) Open() error { m.i = 0; return nil }

// NextBatch packs the next DefaultBatchSize rows into a reused batch.
func (m *Materialized) NextBatch() (*Batch, error) {
	if m.i >= len(m.rows) {
		return nil, io.EOF
	}
	if m.b == nil {
		m.b = NewBatch(len(m.cols), DefaultBatchSize)
	}
	b := m.b
	b.Reset()
	for ; m.i < len(m.rows) && b.N < DefaultBatchSize; m.i++ {
		b.AppendRow(m.rows[m.i])
	}
	return b, nil
}

// Close releases nothing; the rows stay valid for a re-Open.
func (m *Materialized) Close() error { return nil }

// Columns returns the schema.
func (m *Materialized) Columns() []Col { return m.cols }

// SortKey orders by an expression over the input row.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort materializes the child and emits rows in key order.
type Sort struct {
	child BatchOperator
	keys  []SortKey
	out   Materialized
}

// NewSort wraps child with ORDER BY keys.
func NewSort(child BatchOperator, keys []SortKey) *Sort {
	return &Sort{child: child, keys: keys, out: Materialized{cols: child.Columns()}}
}

// Open drains the child, evaluating every key once per batch, and sorts.
func (s *Sort) Open() error {
	type keyed struct {
		row  Row
		keys Row
	}
	var items []keyed
	scratch := make([][]datum.Datum, len(s.keys))
	vecs := make([][]datum.Datum, len(s.keys))
	err := drainChild(s.child, func(b *Batch) error {
		for i, k := range s.keys {
			v, err := evalVec(k.E, b, &scratch[i])
			if err != nil {
				return err
			}
			vecs[i] = v
		}
		b.forLive(func(k, pos int) {
			ks := make(Row, len(s.keys))
			for i := range vecs {
				ks[i] = vecs[i][pos]
			}
			items = append(items, keyed{row: b.Row(k, make(Row, len(b.Cols))), keys: ks})
		})
		return nil
	})
	if err != nil {
		return err
	}
	sort.SliceStable(items, func(a, b int) bool {
		for i, k := range s.keys {
			c := datum.Compare(items[a].keys[i], items[b].keys[i])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	rows := make([]Row, len(items))
	for i := range items {
		rows[i] = items[i].row
	}
	s.out.rows = rows
	return s.out.Open()
}

// NextBatch emits the next batch of sorted rows.
func (s *Sort) NextBatch() (*Batch, error) { return s.out.NextBatch() }

// Close releases the materialized rows.
func (s *Sort) Close() error {
	s.out.rows = nil
	return nil
}

// Columns passes through the child schema.
func (s *Sort) Columns() []Col { return s.child.Columns() }

// drainChild opens child, hands every batch to fn and closes it before
// returning — so the materializing operators (sort, aggregation, the
// join's build side) release their input before producing any output.
func drainChild(child BatchOperator, fn func(*Batch) error) error {
	if err := child.Open(); err != nil {
		child.Close()
		return err
	}
	for {
		b, err := child.NextBatch()
		if err == io.EOF {
			return child.Close()
		}
		if err == nil {
			err = fn(b)
		}
		if err != nil {
			child.Close()
			return err
		}
	}
}
