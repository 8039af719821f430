// Command nodbbench regenerates the figures of the NoDB paper's evaluation
// section (§5, Figs 3-13) and prints their series as text tables. It also
// runs this repo's own experiments, e.g. "scan" — parallel partitioned
// scan throughput vs worker count.
//
// Usage:
//
//	nodbbench -fig all                 # every figure at the default scale
//	nodbbench -fig fig5,fig10          # a subset
//	nodbbench -fig scan,profile        # this repo's perf microbenchmarks
//	nodbbench -fig fig7 -scale small   # laptop-scale quick run
//	nodbbench -workdir /data/nodb      # keep datasets between runs
//	nodbbench -out ""                  # skip the BENCH_exec.json artifact
//
// Besides the text tables, each run writes a machine-readable summary
// (elapsed time and named metrics — rows/sec, speedups — per figure) to
// BENCH_exec.json, so the performance trajectory is comparable across
// revisions without parsing table text.
//
// Datasets are generated (deterministically) under the work directory on
// first use and reused afterwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"nodb/internal/bench"
)

// jsonFigure is one figure's entry in the BENCH_exec.json artifact. Runs
// merge by figure id — regenerating a subset updates only those entries —
// so each entry carries its own provenance.
type jsonFigure struct {
	ID             string             `json:"id"`
	Title          string             `json:"title"`
	Scale          string             `json:"scale"`
	GOMAXPROCS     int                `json:"gomaxprocs"`
	GeneratedAt    string             `json:"generated_at"`
	ElapsedSeconds float64            `json:"elapsed_seconds"`
	Metrics        map[string]float64 `json:"metrics,omitempty"`
}

// jsonOutput is the BENCH_exec.json schema.
type jsonOutput struct {
	Figures []jsonFigure `json:"figures"`
}

// mergeFigures folds this run's figures into the existing artifact (if
// any): entries are replaced by id, other figures' results survive, new
// ids append in run order.
func mergeFigures(path string, ran []jsonFigure) jsonOutput {
	var out jsonOutput
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &out) // a malformed artifact starts fresh
	}
	for _, f := range ran {
		replaced := false
		for i := range out.Figures {
			if out.Figures[i].ID == f.ID {
				out.Figures[i] = f
				replaced = true
				break
			}
		}
		if !replaced {
			out.Figures = append(out.Figures, f)
		}
	}
	return out
}

func main() {
	fig := flag.String("fig", "all", "comma-separated figure ids (fig3..fig13, fig8a, fig8b, scan, exec, formats, kernels, sidecar) or 'all'")
	scale := flag.String("scale", "default", "experiment scale: small or default")
	workDir := flag.String("workdir", "", "dataset/work directory (default: a temp dir, removed on exit)")
	out := flag.String("out", "BENCH_exec.json", "machine-readable results file (empty = don't write)")
	formatsOut := flag.String("formats-out", "BENCH_formats.json", "results file for the per-format figure (empty = don't write)")
	kernelsOut := flag.String("kernels-out", "BENCH_kernels.json", "results file for the kernel-compiler figure (empty = don't write)")
	sidecarOut := flag.String("sidecar-out", "BENCH_sidecar.json", "results file for the durable-state figure (empty = don't write)")
	flag.Parse()

	dir := *workDir
	cleanup := func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "nodbbench")
		if err != nil {
			fatal(err)
		}
		dir = tmp
		cleanup = func() { os.RemoveAll(tmp) }
	}
	defer cleanup()

	var cfg bench.Config
	switch *scale {
	case "small":
		cfg = bench.Small(dir)
	case "default":
		cfg = bench.Default(dir)
	default:
		fatal(fmt.Errorf("unknown scale %q (want small or default)", *scale))
	}

	var ids []string
	if *fig == "all" {
		ids = bench.FigureIDs()
	} else {
		ids = strings.Split(*fig, ",")
	}

	var ran []jsonFigure
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		rep, err := bench.Run(id, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		rep.Print(os.Stdout)
		elapsed := time.Since(start)
		fmt.Printf("[%s regenerated in %.1fs]\n\n", id, elapsed.Seconds())
		ran = append(ran, jsonFigure{
			ID:             rep.ID,
			Title:          rep.Title,
			Scale:          *scale,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
			ElapsedSeconds: elapsed.Seconds(),
			Metrics:        rep.Metrics,
		})
	}
	// The per-format and kernel-compiler figures keep their own artifacts
	// (BENCH_formats.json, BENCH_kernels.json), so each performance
	// trajectory is trackable without touching the executor figures' file.
	var execFigs, formatFigs, kernelFigs, sidecarFigs []jsonFigure
	for _, f := range ran {
		switch f.ID {
		case "formats":
			formatFigs = append(formatFigs, f)
		case "kernels":
			kernelFigs = append(kernelFigs, f)
		case "sidecar":
			sidecarFigs = append(sidecarFigs, f)
		default:
			execFigs = append(execFigs, f)
		}
	}
	writeArtifact(*out, execFigs)
	writeArtifact(*formatsOut, formatFigs)
	writeArtifact(*kernelsOut, kernelFigs)
	writeArtifact(*sidecarOut, sidecarFigs)
}

// writeArtifact merges the run's figures into path (no-op when nothing
// ran for it or path is empty).
func writeArtifact(path string, ran []jsonFigure) {
	if path == "" || len(ran) == 0 {
		return
	}
	result := mergeFigures(path, ran)
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d figures, %d updated)\n", path, len(result.Figures), len(ran))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nodbbench: %v\n", err)
	os.Exit(1)
}
