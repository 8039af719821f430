// Package jsonl is the JSON-Lines format adapter: in-situ SQL over files
// with one JSON object per line (ndjson). Declared columns bind to
// top-level object fields by name; nested values are skipped over, absent
// fields read as NULL.
//
// The adapter is the proof that the engine's raw-format source API is
// open: it is built entirely from the shared machinery of internal/format
// — newline-aligned partitioning (scan.Split) through the worker
// pool/ordered merge, a positional map over field-value offsets for
// selective parsing (the paper's §4.2 idea transplanted to a
// self-describing format: once a query has located "price" in row k, the
// next query jumps straight to the value instead of re-walking the
// object), the binary value cache with its shared-lock warm fast path,
// and the same cancellation and LIMIT-budget contracts as the CSV engine.
package jsonl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/iofault"
	"nodb/internal/qtrace"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/stats"
)

// Source is the per-table adapter state: the shared adaptive structures
// plus the key→ordinal binding.
type Source struct {
	*format.State
	colIdx map[string]int // lower-case field name -> column ordinal
}

// driver registers JSON-Lines with the format registry.
type driver struct{}

func init() { format.Register("jsonl", driver{}) }

// Caps implements format.Driver: JSONL partitions on newline-aligned byte
// ranges like CSV; the load-first baseline has no JSON loader.
func (driver) Caps() format.Caps {
	return format.Caps{
		Loadable:      false,
		LoadErr:       "JSON-Lines tables cannot be bulk-loaded; query them in-situ instead",
		Partitionable: true,
	}
}

// Open implements format.Driver.
func (driver) Open(tbl *schema.Table, env format.Env) (format.Source, error) {
	s := &Source{
		State:  format.NewState(tbl, env),
		colIdx: make(map[string]int, tbl.NumColumns()),
	}
	for i, c := range tbl.Columns {
		s.colIdx[strings.ToLower(c.Name)] = i
	}
	return s, nil
}

// OpenScan implements format.Source through the shared access-method
// decision: read-only cache scans under shared holds when the cache
// covers, a partitioned worker-pool pass on a cold table, the sequential
// selective-parse pass otherwise.
func (s *Source) OpenScan(ctx context.Context, cols []int, conjuncts []expr.Expr) (exec.BatchOperator, error) {
	return s.NewScan(ctx, cols, conjuncts, format.ScanPlan{
		Seq: func(ctx context.Context) exec.BatchOperator {
			return newJSONLScan(ctx, s, cols, conjuncts)
		},
		Par: func(ctx context.Context, workers int) exec.BatchOperator {
			return newParallelScan(ctx, s, cols, conjuncts, workers)
		},
	}), nil
}

// shard returns a private worker view (see format.State.Shard).
func (s *Source) shard() *Source {
	return &Source{State: s.State.Shard(), colIdx: s.colIdx}
}

// parallelScan partitions the file into newline-aligned byte ranges and
// runs one selective-parse worker per range over private positional-map
// and cache shards, merged back in file order — the identical pipeline the
// CSV engine uses, instantiated for a second line-oriented format.
type parallelScan struct {
	ctx       context.Context
	src       *Source
	outCols   []int
	conjuncts []expr.Expr
	workers   int

	f      iofault.File
	shards []*jsonlScan
}

func newParallelScan(ctx context.Context, src *Source, outCols []int, conjuncts []expr.Expr, workers int) exec.BatchOperator {
	p := &parallelScan{ctx: ctx, src: src, outCols: outCols, conjuncts: conjuncts, workers: workers}
	return format.NewPool(ctx, format.PoolConfig{
		Cols:    format.OutputSchema(src.Tbl, outCols),
		Start:   p.start,
		Run:     p.run,
		Merge:   p.merge,
		Release: p.release,
		OnError: p.rebaseErr,
	})
}

func (p *parallelScan) start() (int, error) {
	f, err := iofault.Open(p.src.Tbl.Path)
	if err != nil {
		return 0, format.WrapFileErr(p.src.Tbl.Name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, format.WrapFileErr(p.src.Tbl.Name, err)
	}
	parts, err := scan.Split(f, fi.Size(), p.workers)
	if err != nil {
		f.Close()
		return 0, format.WrapFileErr(p.src.Tbl.Name, err)
	}
	p.f = f
	// One IO-attributing wrapper serves every worker's SectionReader
	// (atomic profile counters make concurrent ReadAt safe).
	var ra io.ReaderAt = f
	if prof := qtrace.FromContext(p.ctx); prof != nil {
		ra = qtrace.CountReaderAt(prof, f)
		prof.Count(qtrace.CtrWorkers, int64(len(parts)))
	}
	p.shards = make([]*jsonlScan, len(parts))
	for i, part := range parts {
		sh := newJSONLScan(p.ctx, p.src.shard(), p.outCols, p.conjuncts)
		sh.shard = true
		sh.batchSize = format.BatchRowsPerMsg
		sh.section = io.NewSectionReader(ra, part.Start, part.End-part.Start)
		sh.base = part.Start
		p.shards[i] = sh
	}
	return len(parts), nil
}

func (p *parallelScan) run(part int, emit func(*exec.Batch) bool) error {
	return format.RunPartition(p.shards[part], emit)
}

// merge folds the drained shard prefix into the shared structures and —
// after a clean full drain — publishes the row count and the merged
// per-shard statistics collectors (stats.Collector.Merge), mirroring the
// CSV parallel scan.
func (p *parallelScan) merge(n int, clean bool) error {
	src := p.src
	if src.PM != nil {
		src.PM.BeginScan()
	}
	total := 0
	var merged []*stats.Collector
	for _, s := range p.shards[:n] {
		sh := s.src
		if src.PM != nil {
			src.PM.AbsorbShard(sh.PM, total)
		}
		if src.Cache != nil {
			src.Cache.Absorb(sh.Cache, total)
		}
		c := sh.Counters.Snapshot()
		src.Counters.Add(&c)
		merged = format.FoldCollectors(merged, s.collectors)
		total += s.row
	}
	if !clean {
		return nil
	}
	if !src.FileUnchanged() {
		// The file moved underneath the pass; per-worker drains can still
		// look clean (each section simply ended early). Never publish
		// totals built from mixed file versions.
		return fmt.Errorf("jsonl: table %s: file changed during parallel scan: %w",
			src.Tbl.Name, format.ErrFileChanged)
	}
	src.Rows.Store(int64(total))
	format.PublishCollectors(src.St, int64(total), merged)
	return nil
}

func (p *parallelScan) release() error {
	if p.f != nil {
		err := p.f.Close()
		p.f = nil
		return err
	}
	return nil
}

// rebaseErr converts a partition-local row number into the absolute file
// row (earlier partitions have drained by the time the error surfaces).
func (p *parallelScan) rebaseErr(part int, err error) error {
	var re *rowError
	if !errors.As(err, &re) {
		return err
	}
	for _, s := range p.shards[:part] {
		re.row += s.row
	}
	return err
}
