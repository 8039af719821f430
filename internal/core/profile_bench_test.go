package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"nodb/internal/exec"
	"nodb/internal/qtrace"
)

// drainPlanned plans and streams one query through p under ctx, returning
// the drain's wall time.
func drainPlanned(tb testing.TB, p *Prepared, ctx context.Context) time.Duration {
	tb.Helper()
	start := time.Now()
	op, _, err := p.Plan(ctx, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := exec.Count(op); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// BenchmarkWarmScanUnprofiled measures the warm cache scan with no profile
// in the context — the qtrace-disabled path every query takes by default.
// Compare against BenchmarkWarmScanProfiled:
//
//	go test -bench 'BenchmarkWarmScan(Unp|P)rofiled' ./internal/core/
func BenchmarkWarmScanUnprofiled(b *testing.B) {
	benchProfiledScan(b, false)
}

// BenchmarkWarmScanProfiled measures the identical workload with a profile
// attached — the opt-in EXPLAIN ANALYZE / ?profile=1 path.
func BenchmarkWarmScanProfiled(b *testing.B) {
	benchProfiledScan(b, true)
}

func benchProfiledScan(b *testing.B, profiled bool) {
	const rows = 20_000
	sql := "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"
	e := benchWarmEngine(b, rows)
	p, err := e.PrepareStmt(sql)
	if err != nil {
		b.Fatal(err)
	}
	drainPlanned(b, p, context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if profiled {
			ctx = qtrace.NewContext(ctx, qtrace.New(sql))
		}
		drainPlanned(b, p, ctx)
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestProfileOverheadOnWarmScan is the CI overhead gate for the qtrace
// instrumentation: on a warm cached Filter+Project scan, the profiling-
// disabled path must stay within 1% of the baseline (every hook gates on
// a nil profile fetched once per component, so the only cost the default
// path may pay is that lookup), and a fully profiled run within 5%. The
// three series interleave round-robin so host drift hits them equally,
// and each compares by its minimum — scheduler noise only ever adds
// time, so the min estimates the true cost far more stably than a mean
// at 1% resolution. Like the other timing gates it retries before
// declaring failure and skips under -short and the race detector.
func TestProfileOverheadOnWarmScan(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; run without -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the overhead ratio")
	}
	const (
		rows   = 40_000
		rounds = 25
	)
	sql := "SELECT id, b + 1, c * 2.0 FROM wide WHERE a < 4"
	e := benchWarmEngine(t, rows)
	p, err := e.PrepareStmt(sql)
	if err != nil {
		t.Fatal(err)
	}
	drainPlanned(t, p, context.Background()) // plans warm, caches verified

	minOf := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[0]
	}
	var offOver, onOver float64
	for attempt := 0; attempt < 3; attempt++ {
		var base, off, on []time.Duration
		for r := 0; r < rounds; r++ {
			base = append(base, drainPlanned(t, p, context.Background()))
			off = append(off, drainPlanned(t, p, context.Background()))
			on = append(on, drainPlanned(t, p, qtrace.NewContext(context.Background(), qtrace.New(sql))))
		}
		baseMin := minOf(base)
		offOver = float64(minOf(off))/float64(baseMin) - 1
		onOver = float64(minOf(on))/float64(baseMin) - 1
		t.Logf("warm Filter+Project attempt %d: base %v, disabled %+.2f%%, profiled %+.2f%%",
			attempt, baseMin, offOver*100, onOver*100)
		if offOver <= 0.01 && onOver <= 0.05 {
			return
		}
	}
	if offOver > 0.01 {
		t.Errorf("profiling-disabled overhead %+.2f%% > 1%% after 3 attempts", offOver*100)
	}
	if onOver > 0.05 {
		t.Errorf("profiled overhead %+.2f%% > 5%% after 3 attempts", onOver*100)
	}
}
