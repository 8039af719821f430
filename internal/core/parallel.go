package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/format"
	"nodb/internal/iofault"
	"nodb/internal/qtrace"
	"nodb/internal/scan"
	"nodb/internal/stats"
)

// parallelScan is the partitioned CSV access method: the file splits into
// newline-aligned byte ranges (scan.Split), each scanned by a worker
// goroutine running the exact selective-tokenize / selective-parse pipeline
// of the sequential inSituScan — but over a private positional-map shard
// and cache shard, so the per-tuple hot path takes no locks. The
// worker-pool/merge plumbing is the shared format.Pool: batches merge back
// into file order through exec.OrderedBatchSource; when the pass
// completes, shards merge into the shared structures (posmap.AbsorbShard,
// colcache.Absorb, stats.Collector.Merge) so later queries still get the
// paper's adaptive-indexing benefit. Results are bit-identical to the
// sequential scan for any worker count.
//
// Parallel partitioning only runs on cold tables (format.State
// .ScanWorkers): once the positional map or cache hold content, the
// sequential pass exploits them instead.
type parallelScan struct {
	ctx       context.Context
	rt        *rawTable
	outCols   []int
	conjuncts []expr.Expr
	workers   int

	f      iofault.File
	shards []*inSituScan // per partition, in file order
}

// newParallelScan builds the operator; workers must be >= 2. Workers
// observe ctx cancellation inside their partition scans and the merged
// stream surfaces the context error.
func newParallelScan(ctx context.Context, rt *rawTable, outCols []int, conjuncts []expr.Expr, workers int) exec.BatchOperator {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &parallelScan{ctx: ctx, rt: rt, outCols: outCols, conjuncts: conjuncts, workers: workers}
	return format.NewPool(ctx, format.PoolConfig{
		Cols:    format.OutputSchema(rt.Tbl, outCols),
		Start:   p.start,
		Run:     p.run,
		Merge:   p.merge,
		Release: p.release,
		OnError: p.rebaseErr,
	})
}

// rebaseErr converts a partition-local row number in a worker's parse
// error into the absolute file row. By the time partition part's error is
// consumed, every earlier partition has drained, so their row counts are
// final (and the channel closes ordered those writes before this read).
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

// start partitions the file and prepares one shard scan per range.
func (p *parallelScan) start() (int, error) {
	f, err := iofault.Open(p.rt.Tbl.Path)
	if err != nil {
		return 0, format.WrapFileErr(p.rt.Tbl.Name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, format.WrapFileErr(p.rt.Tbl.Name, err)
	}
	parts, err := scan.Split(f, fi.Size(), p.workers)
	if err != nil {
		f.Close()
		return 0, format.WrapFileErr(p.rt.Tbl.Name, err)
	}
	p.f = f
	// One IO-attributing wrapper serves every worker's SectionReader: the
	// underlying ReadAt is stateless and the profile's counters are
	// atomic, so concurrent positioned reads attribute safely.
	var ra io.ReaderAt = f
	if prof := qtrace.FromContext(p.ctx); prof != nil {
		ra = qtrace.CountReaderAt(prof, f)
		prof.Count(qtrace.CtrWorkers, int64(len(parts)))
	}
	p.shards = make([]*inSituScan, len(parts))
	for i, part := range parts {
		sh := newInSituScan(p.ctx, p.rt.shard(), p.outCols, p.conjuncts)
		sh.shard = true
		sh.batchSize = format.BatchRowsPerMsg
		sh.section = io.NewSectionReader(ra, part.Start, part.End-part.Start)
		sh.base = part.Start
		p.shards[i] = sh
	}
	return len(parts), nil
}

// run drains one partition through its private scan, emitting the
// scan's batches directly (a shard scan allocates each batch freshly, so
// the consumer owns it outright).
func (p *parallelScan) run(part int, emit func(*exec.Batch) bool) error {
	return format.RunPartition(p.shards[part], emit)
}

// merge folds shards[0..n) — in file order, offsetting rows by the
// partitions before them — into the shared positional map, cache and
// counters. After a clean drain of every partition it also publishes the
// row count and statistics, exactly what the sequential scan's finish
// does; on an abandoned pass (LIMIT, error, early Close) the completed
// prefix still merges but totals stay unpublished, mirroring an aborted
// sequential scan. format.Pool calls it at most once per scan.
func (p *parallelScan) merge(n int, clean bool) error {
	rt := p.rt
	if rt.PM != nil {
		rt.PM.BeginScan() // pin merged chunks like a sequential pass would
	}
	total := 0
	var merged []*stats.Collector
	for _, s := range p.shards[:n] {
		sh := s.rt
		if rt.PM != nil {
			rt.PM.AbsorbShard(sh.PM, total)
		}
		if rt.Cache != nil {
			rt.Cache.Absorb(sh.Cache, total)
		}
		// The worker flushed its scan counters into its private shard table
		// at Close; fold them into the shared table here.
		c := sh.Counters.Snapshot()
		rt.Counters.Add(&c)
		merged = format.FoldCollectors(merged, s.collectors)
		total += s.row
	}
	if !clean {
		return nil
	}
	if !rt.FileUnchanged() {
		// The file moved underneath the pass; per-worker drains can still
		// look clean (each section simply ended early). Never publish
		// totals built from mixed file versions.
		return fmt.Errorf("core: table %s: file changed during parallel scan: %w",
			rt.Tbl.Name, format.ErrFileChanged)
	}
	rt.Rows.Store(int64(total))
	format.PublishCollectors(rt.St, int64(total), merged)
	return nil
}

// release closes the partitioned file handle.
func (p *parallelScan) release() error {
	if p.f != nil {
		err := p.f.Close()
		p.f = nil
		return err
	}
	return nil
}
