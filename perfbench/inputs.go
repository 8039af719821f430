package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"

	"nodb"
	"nodb/internal/tpch"
)

// scaleFactor sizes the TPC-H data: lineitem is about 300k rows and 36 MB,
// all eight files about 45 MB.
const scaleFactor = 0.05

// inputs are one run's generated raw files.
type inputs struct {
	dir        string           // the .tbl files and schema.nodb
	tableBytes map[string]int64 // raw bytes per table
	sha256     string           // over every file, in name order
}

// generate writes fresh TPC-H files for seed into dir. Equal seeds give
// byte-identical files, which the recorded hash shows.
func generate(dir string, seed int64) (*inputs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := tpch.Generate(dir, scaleFactor, seed); err != nil {
		return nil, err
	}
	if err := tpch.WriteSchemaFile(filepath.Join(dir, "schema.nodb")); err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, tableBytes: map[string]int64{}}
	h := sha256.New()
	for _, t := range tpch.TableNames() {
		f, err := os.Open(filepath.Join(dir, t+".tbl"))
		if err != nil {
			return nil, err
		}
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		in.tableBytes[t] = n
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// catalog registers the generated tables.
func (in *inputs) catalog() (*nodb.Catalog, error) {
	cat := nodb.NewCatalog()
	err := cat.LoadSchemaFile(filepath.Join(in.dir, "schema.nodb"), in.dir)
	return cat, err
}

// open opens a DB over the generated files.
func (in *inputs) open(opts nodb.Options) (*nodb.DB, error) {
	cat, err := in.catalog()
	if err != nil {
		return nil, err
	}
	return nodb.Open(cat, opts)
}

// answer is a result in the form nodbd puts on the wire: int64, float64,
// string (dates as YYYY-MM-DD), bool or nil per value.
type answer [][]any

func wireValue(v nodb.Value) any {
	if v.Null() {
		return nil
	}
	switch v.T {
	case nodb.Int:
		return v.Int()
	case nodb.Float:
		return v.Float()
	case nodb.Bool:
		return v.Bool()
	case nodb.Date:
		return v.DateString()
	default:
		return v.Text()
	}
}

// collect drains rows into an answer and closes them.
func collect(rows *nodb.Rows) (answer, error) {
	defer rows.Close()
	var out answer
	for rows.Next() {
		vals := rows.Values()
		row := make([]any, len(vals))
		for i, v := range vals {
			row[i] = wireValue(v)
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// oracle answers queries with the load-first engine (ModeLoadFirst), an
// independent implementation of the same SQL over a bulk-loaded page
// store, on the same files.
type oracle struct {
	db    *nodb.DB
	pages string
}

func newOracle(in *inputs, pages string) (*oracle, error) {
	if err := os.MkdirAll(pages, 0o755); err != nil {
		return nil, err
	}
	db, err := in.open(nodb.Options{Mode: nodb.ModeLoadFirst, DataDir: pages})
	if err != nil {
		return nil, err
	}
	return &oracle{db: db, pages: pages}, nil
}

func (o *oracle) answer(sql string, args ...any) (answer, error) {
	rows, err := o.db.QueryContext(context.Background(), sql, args...)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	a, err := collect(rows)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return a, nil
}

// close closes the oracle, removes its page store and flushes every file
// write so far to disk, so that no writeback of the inputs or the page
// store runs during set-up or the measured window.
func (o *oracle) close() error {
	err := o.db.Close()
	if rerr := os.RemoveAll(o.pages); err == nil {
		err = rerr
	}
	syscall.Sync()
	return err
}

// compare reports how got differs from want: row order and every value
// must match, integers exactly and floats within a relative 1e-6
// (summation order differs between engines and worker counts).
func compare(got, want answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: got %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d column %d: got %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func sameValue(a, b any) bool {
	ia, aInt := a.(int64)
	ib, bInt := b.(int64)
	if aInt && bInt {
		return ia == ib
	}
	fa, aok := number(a)
	fb, bok := number(b)
	if aok && bok {
		return math.Abs(fa-fb) <= 1e-6*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
	}
	return a == b
}

func number(v any) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	}
	return 0, false
}
