// Command perfbench is the repository's benchmark. It generates TPC-H
// data from a seed, runs one named workload through the public API
// (nodb.Open, DB.Prepare, Stmt.QueryContext, Rows, DB.Metrics/Stats) or
// through internal/server over loopback HTTP, checks every answer against
// the load-first engine, and prints its metrics. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around its calls into each layer and per-query engine
// profiles, and the metrics are the per-layer ones. BENCHMARK.json at the
// repository root lists both sets and why each workload exists.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload tpch-warm --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"nodb"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory for this run, emptied first
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	cfg config
	in  *inputs
	wl  *workload

	tr     *tracer // nil when untraced
	lay    *layers
	inRun  atomic.Bool // false during set-up, true in the measured window
	nTrace sync.Map    // template -> *atomic.Int64, for alternating tracing

	attempted atomic.Int64
	failed    atomic.Int64
	rejected  atomic.Int64 // requests nodbd's admission control refused
	errMu     sync.Mutex
	errs      []string

	win       window
	traceFile string
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]int // sample count behind each timing metric
	idle      []string       // per-layer metrics the workload gave no sample or denominator
}

func main() {
	var cfg config
	var traceFlag int
	smoke := flag.Bool("smoke", false, "run every workload briefly, traced and untraced, and check every metric name in BENCHMARK.json is reported")
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated inputs and the request mix")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.work = filepath.Join(".bench_build", "work")

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *smoke {
		if err := runSmoke(sp, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench smoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfbench smoke: ok")
		return
	}
	res, err := runOne(sp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne generates the inputs, runs the workload and assembles the result.
// The scratch directory is removed afterwards.
func runOne(sp *spec, cfg config) (*result, error) {
	wl := workloadByName(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	in, err := generate(filepath.Join(cfg.work, "data"), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	b := &bench{cfg: cfg, in: in, wl: wl, lay: newLayers(),
		e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	if err := wl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	if b.tr != nil {
		b.traceMetrics()
	}

	res := &result{Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && len(b.errs) == 0
	want, src := sp.EndToEnd, b.e2e
	if cfg.trace {
		want, src = sp.PerLayer, b.layer
	}
	for _, d := range want {
		v, ok := src[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", wl.name, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	b.printDetail()
	return res, nil
}

// fail records a wrong or failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.errMu.Lock()
	if len(b.errs) < 10 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
	b.errMu.Unlock()
}

// invariant records a broken workload assertion; it makes the run incorrect
// without being an operation.
func (b *bench) invariant(format string, args ...any) {
	b.errMu.Lock()
	b.errs = append(b.errs, "invariant: "+fmt.Sprintf(format, args...))
	b.errMu.Unlock()
}

// traceThis decides whether one execution of a template is traced: in a
// traced run, alternate executions of each template are, so the untraced
// ones measure what tracing costs.
func (b *bench) traceThis(tmpl string) bool {
	if b.tr == nil {
		return false
	}
	v, _ := b.nTrace.LoadOrStore(tmpl, new(atomic.Int64))
	return v.(*atomic.Int64).Add(1)%2 == 1
}

// timing sets a per-operation timing metric from a sample and records
// its sample count.
func (b *bench) timing(dst map[string]float64, name string, s sample) {
	dst[name] = s.median()
	b.samples[name] = len(s)
	if len(s) == 0 && b.cfg.trace {
		b.idle = append(b.idle, name)
	}
}

// share sets a per-layer ratio metric. The result line needs a number for
// every metric, so a ratio over nothing reads 0 and its name is listed in
// the detail line as not exercised.
func (b *bench) share(name string, num, den float64) {
	b.layer[name] = ratio(num, den)
	if den == 0 {
		b.idle = append(b.idle, name)
	}
}

// stateMB is positional-map plus column-cache bytes over every table.
func stateMB(db *nodb.DB) (pm, cache float64) {
	for _, t := range db.Tables() {
		m := db.Metrics(t.Name)
		pm += float64(m.PMBytes) / 1e6
		cache += float64(m.CacheBytes) / 1e6
	}
	return pm, cache
}

// heapMB is the live heap after a forced GC.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// printDetail writes provenance, sample counts and any errors as one JSON
// line ahead of the result line. The commit comes from the build's VCS
// stamp, absent when the source tree is not a git checkout.
func (b *bench) printDetail() {
	goVersion, commit := runtime.Version(), "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	detail := map[string]any{
		"workload":      b.wl.name,
		"seed":          b.cfg.seed,
		"seconds":       b.cfg.seconds,
		"trace":         b.cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            goVersion,
		"git_commit":    commit,
		"scale_factor":  scaleFactor,
		"raw_bytes":     b.in.tableBytes,
		"inputs_sha256": b.in.sha256,
		"clients":       b.wl.clients(),
		"cache_budget":  b.wl.budget,
		"set_ups":       max(b.wl.reps, 1),
		"samples":       b.samples,
		"not_exercised": b.idle,
		"error_rate":    ratio(float64(b.failed.Load()), float64(b.attempted.Load())),
		"end_to_end":    b.e2e,
		"per_layer":     b.layer,
		"trace_file":    b.traceFile,
		"errors":        b.errs,
	}
	line, _ := json.Marshal(map[string]any{"detail": detail})
	fmt.Println(string(line))
}

// runSmoke runs every workload briefly, untraced and traced, and checks
// that each reports every metric BENCHMARK.json lists, every end-to-end
// metric non-zero, and only correct answers.
func runSmoke(sp *spec, cfg config) error {
	for _, w := range sp.Workloads {
		if workloadByName(w.Name) == nil {
			return fmt.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.seconds, c.trace = w.name, 2, trace
			res, err := runOne(sp, c)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				return fmt.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range sp.EndToEnd {
				if !trace && res.Metrics[d.Name].Value == 0 {
					return fmt.Errorf("%s: %s is 0", w.name, d.Name)
				}
			}
			line, _ := json.Marshal(res)
			fmt.Println(string(line))
		}
	}
	return nil
}
