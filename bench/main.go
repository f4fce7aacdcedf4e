// Command bench is the repository's end-to-end benchmark: it builds
// ./cmd/diffaudit, runs the real `diffaudit serve` binary as a subprocess
// with its journal, filesystem store and decoded-snapshot cache live, drives
// it over /v1 from this one process, checks what it serves against the
// library called in-process, and prints every metric by name and unit. The
// last line of standard output is one JSON object (see BENCHMARK.json and
// README.md).
//
// It is started through run.sh from the root of a checkout:
//
//	bash bench/run.sh --workload read-warm --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload upload --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --selfcheck
//
// The harness reaches the library only through the root diffaudit package,
// never internal/..., so refactors inside internal/ cannot break the
// instrument that judges them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: upload, read-warm, read-cold or mixed")
	seed := flag.Int64("seed", 1, "seed for corpus, targets and operation order")
	seconds := flag.Float64("seconds", runSeconds, "seconds of measurement (eight back-to-back rounds)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, no spans; 1: the traced run and the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of full passes and compare their medians with the bounds")
	gen := flag.String("gen", "", "internal: generate the workload's corpus in this run directory and exit (see corpus.go)")
	manifestJSON := flag.Bool("benchmark-json", false, "print BENCHMARK.json as metrics.go declares it and exit")
	flag.Parse()

	if *manifestJSON {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	wl := workloadByName(*workload)
	if wl == nil && !*selfcheck {
		fatal(fmt.Errorf("unknown -workload %q (want upload, read-warm, read-cold or mixed)", *workload))
	}
	if *gen != "" {
		if err := generate(*gen, *seed, wl); err != nil {
			fatal(err)
		}
		return
	}

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0,
		root: root, buildDir: filepath.Join(root, ".bench_build"), outDir: filepath.Join(root, "bench", "out"),
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *selfcheck {
		os.Exit(selfCheck(cfg))
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	line := emit(cfg, res)
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// emit prints the human-readable report and assembles the result line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one. A per-layer metric the workload does not exercise reads 0; an
// end-to-end metric that could not be computed makes the run incorrect.
func emit(cfg runConfig, res *runResult) resultLine {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s  seed %d  %gs measured  trace %v  %d CPUs  server -workers %d  machine.calib_ms %.1f\n",
		cfg.wl.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), serverWorkers(), res.calibMs)
	straddling := map[string]bool{}
	for _, name := range res.straddling {
		straddling[name] = true
	}
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if !cfg.trace && v == 0 {
			res.problem("end-to-end metric %s could not be measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		note := ""
		if n, ok := res.n[d.Name]; ok {
			note = fmt.Sprintf("  n=%d", n)
		}
		if rs := res.rounds[d.Name]; len(rs) > 0 {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range rs {
				if !math.IsNaN(r) {
					lo, hi = math.Min(lo, r), math.Max(hi, r)
				}
			}
			note += fmt.Sprintf("  rounds %.4g–%.4g", lo, hi)
		}
		if straddling[d.Name] {
			note += "  straddling"
		}
		fmt.Printf("  %-28s %14.4f %-6s%s\n", d.Name, v, d.Unit, note)
	}
	// Whatever else the run measured, for the reader; not part of the result.
	var extra []string
	for name := range res.metrics {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  (%s %.4f)\n", name, res.metrics[name])
	}
	for _, b := range res.budget {
		fmt.Println(b)
	}
	for _, p := range res.problems {
		fmt.Println("PROBLEM:", p)
	}
	fmt.Printf("attempted %d  failed %d\n", res.attempted, res.failed)
	line.Failed = res.failed
	line.Correct = res.failed == 0 && len(res.problems) == 0
	return line
}
