package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
)

// selfCheck answers "would this benchmark reject its own code?". It runs two
// sets, A and B, of full untraced passes over all workloads, interleaved
// ABAB… so that a drift of the machine hits both, each run on a seed of its
// own, and prints per (workload, metric) both medians, the quartiles, the
// spread (interquartile range over median, as the gate computes it), the gap
// between the medians and the bound. Any gap over its bound, any spread over
// its bound (setup_s excepted, as the gate excepts it) or any percentile
// sitting on a cliff fails the check. The output is markdown;
// SPREAD.md is a committed copy.
func selfCheck(cfg runConfig) int {
	type key struct{ wl, metric string }
	sets := [2]map[key][]float64{{}, {}}
	calib := [2][]float64{}
	straddling := map[key]bool{}
	incorrect := 0
	seed := cfg.seed
	for pass := 0; pass < selfCheckPasses; pass++ {
		for set := 0; set < 2; set++ {
			for i := range workloads {
				c := cfg
				c.wl, c.seed, c.trace = &workloads[i], seed, false
				seed++
				res, err := run(c)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
					return 2
				}
				if res.failed > 0 || len(res.problems) > 0 {
					incorrect++
					for _, p := range res.problems {
						fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %s\n", c.wl.name, c.seed, p)
					}
				}
				for _, d := range endToEnd {
					sets[set][key{c.wl.name, d.Name}] = append(sets[set][key{c.wl.name, d.Name}], res.metrics[d.Name])
				}
				for _, name := range res.straddling {
					straddling[key{c.wl.name, name}] = true
				}
				calib[set] = append(calib[set], res.calibMs)
				fmt.Fprintf(os.Stderr, "bench: selfcheck: pass %d set %c %-10s seed %-3d ops_per_s %9.2f  machine.calib_ms %.1f\n",
					pass+1, 'A'+set, c.wl.name, c.seed, res.metrics["ops_per_s"], res.calibMs)
			}
		}
	}

	fmt.Printf("# Spread of the benchmark against itself\n\n")
	fmt.Printf("Two sets of %d passes of the same code, interleaved ABAB…, every run on its own seed (%d–%d), %gs measured per run, %d CPUs, server `-workers %d`.\n",
		selfCheckPasses, cfg.seed, seed-1, cfg.seconds, runtime.NumCPU(), serverWorkers())
	fmt.Printf("`machine.calib_ms` (fixed SHA-256 kernel on every CPU; a slow machine phase shows here, no metric is rescaled by it): set A median %.1f (min %.1f, max %.1f), set B median %.1f (min %.1f, max %.1f).\n\n",
		median(calib[0]), slices.Min(calib[0]), slices.Max(calib[0]), median(calib[1]), slices.Min(calib[1]), slices.Max(calib[1]))
	fmt.Printf("Spread is (Q3−Q1)/median of a set (A∪B: of all runs of both), quartiles as Python's `statistics.quantiles(n=4)`; gap is how much worse B's median is than A's, in the metric's direction. The gate needs gap ≤ bound and, of every metric but `setup_s`, spread ≤ bound; the target while sizing was spread < bound/3.\n\n")
	fmt.Printf("| workload | metric | unit | median A | Q1–Q3 A | spread A | median B | Q1–Q3 B | spread B | spread A∪B | gap B vs A | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			k := key{wl.name, d.Name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			both := append(append([]float64(nil), a...), b...)
			u1, u3 := quartiles(both)
			gap := (mb - ma) / ma
			if d.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			switch {
			case straddling[k]:
				verdict = "STRADDLING"
				bad++
			case gap > d.Bound:
				verdict = "GAP OVER BOUND"
				bad++
			case math.Max(sa, sb) > d.Bound && d.Name == "setup_s":
				verdict = "ok (spread over bound; the gate exempts setup_s)"
			case math.Max(sa, sb) > d.Bound:
				verdict = "SPREAD OVER BOUND"
				bad++
			case math.Max(sa, sb) > d.Bound/3:
				verdict = "ok (spread over bound/3)"
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g–%.4g | %.2f%% | %.4g | %.4g–%.4g | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				wl.name, d.Name, d.Unit, ma, a1, a3, sa*100, mb, b1, b3, sb*100, (u3-u1)/median(both)*100, gap*100, d.Bound*100, verdict)
		}
	}
	fmt.Printf("\n%d runs; %d incorrect; %d (workload, metric) pairs outside their bound.\n", 2*selfCheckPasses*len(workloads), incorrect, bad)
	if bad > 0 || incorrect > 0 {
		return 1
	}
	return 0
}
