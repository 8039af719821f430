package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"nodb"
)

// spec is the benchmark's definition as BENCHMARK.json records it; the
// program reports exactly the metrics listed there.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return &s, nil
}

// layers accumulates, in a traced run, what the engine's per-query
// profiles report and the latency of traced and untraced executions.
type layers struct {
	mu     sync.Mutex
	phase  map[string]sample     // profile phase timings, ms per op
	sum    map[string]float64    // profile counters summed over traced ops
	lat    map[string]*[2]sample // template -> latencies {untraced, traced}
	server map[string]sample     // nodbd round trips, engine time, overhead
}

func newLayers() *layers {
	return &layers{phase: map[string]sample{}, sum: map[string]float64{},
		lat: map[string]*[2]sample{}, server: map[string]sample{}}
}

// latency records one execution of tmpl in the measured window.
func (l *layers) latency(tmpl string, traced bool, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.lat[tmpl]
	if p == nil {
		p = new([2]sample)
		l.lat[tmpl] = p
	}
	i := 0
	if traced {
		i = 1
	}
	p[i].add(d)
}

// profile folds one query's engine profile into the layer figures. Phases
// that did not run (no raw scan on a warm query) are left out of their
// medians rather than counted as zero.
func (l *layers) profile(p *nodb.Profile) {
	if p == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ph, c := p.Phases, p.Ctrs
	put := func(name string, ns int64, always bool) {
		if always || ns > 0 {
			l.phase[name] = append(l.phase[name], float64(ns)/1e6)
		}
	}
	put("plan.plan_ms", ph.PlanNS, true)
	put("plan.bind_ms", ph.BindNS, true)
	put("exec.self_ms", ph.ExecuteNS-ph.RawScanNS-ph.CacheScanNS, true)
	put("format.lock_wait_ms", ph.LockWaitNS, true)
	put("colcache.scan_ms", ph.CacheScanNS, false)
	put("scan.raw_scan_ms", ph.RawScanNS, false)
	put("iofault.io_ms", ph.IONS, false)
	put("server.queue_ms", ph.QueueNS, false)
	if c.Workers > 0 {
		l.phase["format.workers"] = append(l.phase["format.workers"], float64(c.Workers))
	}
	l.sum["ops"]++
	l.sum["raw_scan_s"] += float64(ph.RawScanNS) / 1e9
	l.sum["fields_parsed"] += float64(c.FieldsParsed)
	l.sum["io_bytes"] += float64(c.IOBytes)
	l.sum["kernel_batches"] += float64(c.KernelBatches)
	l.sum["generic_batches"] += float64(c.GenericBatches)
}

// serverSample records one nodbd request's client round trip and the
// server's own elapsed time from its trailer.
func (l *layers) serverSample(rtt time.Duration, engineMS float64, bytes, rows int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.server["rtt"] = append(l.server["rtt"], ms(rtt))
	l.server["engine"] = append(l.server["engine"], engineMS)
	l.server["overhead"] = append(l.server["overhead"], ms(rtt)-engineMS)
	l.sum["resp_bytes"] += float64(bytes)
	l.sum["resp_rows"] += float64(rows)
}

// overheadPct compares traced with untraced executions of each template:
// the count-weighted mean of median(traced)/median(untraced) - 1, in
// percent.
func (l *layers) overheadPct() float64 {
	var w, acc float64
	for _, p := range l.lat {
		if len(p[0]) == 0 || len(p[1]) == 0 {
			continue
		}
		n := float64(len(p[0]) + len(p[1]))
		acc += n * (p[1].median()/p[0].median() - 1)
		w += n
	}
	return 100 * ratio(acc, w)
}

// window is what the measured window did, from counters the program
// exports: engine stats, table metrics and the Go runtime.
type window struct {
	ops           int64
	start, end    rtSnap
	statsSum      nodb.Stats // summed over DBs when the window spans several
	pmMB, cacheMB float64    // at the end
	stmt, kernel  [2]int64   // hits and lookups of the two caches at the end
	appendedBytes int64      // raw bytes appended to files
}

// rtSnap is a point-in-time read of the Go runtime and process CPU.
type rtSnap struct {
	alloc   uint64
	gc      uint32
	pauseNS uint64
	cpu     time.Duration
}

func readRuntime() rtSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtSnap{alloc: m.TotalAlloc, gc: m.NumGC, pauseNS: m.PauseTotalNs, cpu: cpu}
}

// addStats adds the counter deltas between two engine snapshots.
func addStats(dst *nodb.Stats, from, to nodb.Stats) {
	dst.TuplesParsed += to.TuplesParsed - from.TuplesParsed
	dst.FieldsParsed += to.FieldsParsed - from.FieldsParsed
	dst.FieldsFromMap += to.FieldsFromMap - from.FieldsFromMap
	dst.FieldsFromScan += to.FieldsFromScan - from.FieldsFromScan
	dst.CacheHits += to.CacheHits - from.CacheHits
	dst.CacheMisses += to.CacheMisses - from.CacheMisses
	dst.Sidecar.Checkpoints += to.Sidecar.Checkpoints - from.Sidecar.Checkpoints
	dst.Sidecar.BytesWritten += to.Sidecar.BytesWritten - from.Sidecar.BytesWritten
}

// endState records the adaptive-state and cache figures of the DB the
// window ran on.
func (w *window) endState(db *nodb.DB) {
	w.pmMB, w.cacheMB = stateMB(db)
	st := db.Stats()
	w.stmt = [2]int64{st.StmtCache.Hits, st.StmtCache.Hits + st.StmtCache.Misses}
	w.kernel = [2]int64{st.KernelCache.Hits, st.KernelCache.Hits + st.KernelCache.Misses}
}

// traceMetrics derives every per-layer metric of a traced run from its
// spans, the engine profiles and the window's counters. Spans of set-up
// operations count only for the layers the window itself never calls
// (open, prepare, checkpoint).
func (b *bench) traceMetrics() {
	w, l, out := b.win, b.lay, b.layer
	self := b.tr.selfTimes(func(rec *opRecord) bool { return rec.Run })
	setup := b.tr.selfTimes(func(rec *opRecord) bool { return true })
	b.timing(out, "core.open_ms", setup["open"])
	b.timing(out, "plan.prepare_ms", setup["prepare"])
	b.timing(out, "sidecar.checkpoint_ms", setup["checkpoint"])
	b.timing(out, "exec.first_row_ms", self["query.first_row"])
	b.timing(out, "exec.drain_ms", self["query.drain"])
	b.timing(out, "server.rtt_ms", l.server["rtt"])
	b.timing(out, "server.engine_ms", l.server["engine"])
	b.timing(out, "server.overhead_ms", l.server["overhead"])
	for _, name := range []string{"plan.plan_ms", "plan.bind_ms", "exec.self_ms", "format.lock_wait_ms",
		"colcache.scan_ms", "scan.raw_scan_ms", "iofault.io_ms", "server.queue_ms", "format.workers"} {
		b.timing(out, name, l.phase[name])
	}

	s := w.statsSum
	ops := float64(max(w.ops, 1))
	b.share("core.stmtcache_hit_ratio", float64(w.stmt[0]), float64(w.stmt[1]))
	b.share("kernel.cache_hit_ratio", float64(w.kernel[0]), float64(w.kernel[1]))
	b.share("kernel.batch_share", l.sum["kernel_batches"], l.sum["kernel_batches"]+l.sum["generic_batches"])
	b.share("colcache.hit_ratio", float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	out["colcache.mb"] = w.cacheMB
	out["posmap.mb"] = w.pmMB
	b.share("posmap.map_field_share", float64(s.FieldsFromMap), float64(s.FieldsFromMap+s.FieldsFromScan))
	out["scan.tuples_parsed"] = float64(s.TuplesParsed) / ops
	out["scan.fields_parsed"] = float64(s.FieldsParsed) / ops
	b.share("scan.fields_per_s", l.sum["fields_parsed"], l.sum["raw_scan_s"])
	b.share("iofault.io_mb", l.sum["io_bytes"]/1e6, l.sum["ops"])
	out["server.rejected"] = float64(b.rejected.Load())
	b.share("server.bytes_per_row", l.sum["resp_bytes"], l.sum["resp_rows"])
	out["sidecar.checkpoints"] = float64(s.Sidecar.Checkpoints)
	out["sidecar.mb_written"] = float64(s.Sidecar.BytesWritten) / 1e6
	b.share("sidecar.write_amp", float64(s.Sidecar.BytesWritten), float64(w.appendedBytes))
	if len(setup["checkpoint"]) == 0 { // the workload runs without a sidecar
		b.idle = append(b.idle, "sidecar.checkpoints", "sidecar.mb_written")
	}
	if len(l.server["rtt"]) == 0 { // nor through nodbd
		b.idle = append(b.idle, "server.rejected")
	}
	out["runtime.alloc_mb_per_query"] = float64(w.end.alloc-w.start.alloc) / 1e6 / ops
	out["runtime.cpu_ms_per_query"] = ms(w.end.cpu-w.start.cpu) / ops
	out["runtime.gc_cycles"] = float64(w.end.gc - w.start.gc)
	out["runtime.gc_pause_ms"] = float64(w.end.pauseNS-w.start.pauseNS) / 1e6
	out["bench.trace_overhead_pct"] = l.overheadPct()
	spans, engine := b.tr.coverage()
	b.timing(out, "trace.span_coverage", spans)
	b.timing(out, "trace.engine_share", engine)

	selfMS := map[string]any{}
	for name, times := range self {
		selfMS[name] = map[string]any{"median": times.median(), "n": len(times)}
	}
	summary := map[string]any{"self_ms": selfMS, "metrics": out, "samples": b.samples, "not_exercised": b.idle}
	b.traceFile = filepath.Join(filepath.Dir(b.cfg.work), fmt.Sprintf("trace-%s-%d.json", b.wl.name, b.cfg.seed))
	if err := b.tr.write(b.traceFile, summary); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	}
}
