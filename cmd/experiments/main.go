// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated I/O configurations. Each experiment prints
// the same rows/series the paper reports; absolute numbers come from the
// simulator, so the comparisons of interest are shapes: who wins, by what
// factor, and whether estimation errors stay below 10%.
//
// Independent experiments run concurrently on a worker pool (-j, default
// GOMAXPROCS). Every experiment writes into a private buffer and buffers
// are flushed to stdout in canonical order, so the output at -j 8 is
// byte-identical to -j 1; timing and cache diagnostics go to stderr.
//
// Usage:
//
//	experiments -run all            # everything (default)
//	experiments -run table13        # one experiment
//	experiments -run fig7,table9    # a comma-separated subset
//	experiments -quick              # scale class D down for smoke runs
//	experiments -j 8                # worker-pool width (0 = GOMAXPROCS)
//	experiments -v                  # timing + simcache stats on stderr
//	experiments -list               # list experiment ids
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"iophases"
	"iophases/internal/obs"
	"iophases/internal/prof"
	"iophases/internal/report"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
)

// experiment is one regenerable table or figure.
type experiment struct {
	id    string
	title string
	run   func(e *env)
}

// env carries run-wide options to experiments plus the experiment's
// private output buffer — experiments must print through e.out so
// concurrent runs never interleave on stdout.
type env struct {
	quick bool
	out   io.Writer
}

var experiments = []experiment{
	{"fig2", "Figure 2 — per-rank trace files (BT-IO class C example)", figure2},
	{"fig3", "Figure 3 — local access patterns (LAP)", figure3},
	{"fig4", "Figure 4 — I/O phases of the example", figure4},
	{"fig5", "Figure 5 — I/O abstract model (global access pattern)", figure5},
	{"fig6", "Figure 6 — I/O model of IOR", figure6},
	{"table8", "Table VIII + Figure 7 — I/O phases of MADBench2 (16p, 32MB, shared)", table8},
	{"table9", "Table IX — system utilization on configuration A", table9},
	{"table10", "Table X — system utilization on configuration B", table10},
	{"fig8", "Figure 8 — device-level monitoring of MADBench2 on configuration B", figure8},
	{"fig9", "Figure 9 — BT-IO class C model on configurations A and B", figure9},
	{"table11", "Table XI + Figure 10 — BT-IO phase description (classes C and D)", table11},
	{"table12", "Table XII — I/O time estimation, class D 64p, configC vs Finisterrae", table12},
	{"table13", "Table XIII — estimation error on configC (36, 64, 121 procs)", table13},
	{"table14", "Table XIV — estimation error on Finisterrae (64 procs)", table14},
	{"phase3note", "§V note — characterization error on mixed/small phases", phase3note},
	{"sweep", "Tables III–V — IOR and IOzone characterization sweeps", sweepExp},
	{"replayerext", "§V future work — phase-faithful replay benchmark for mixed phases", replayerext},
	{"rescaleext", "extension — rescale a 16p model to 64p and predict", rescaleext},
	{"schedext", "extension — phase-aware co-scheduling of two jobs", schedext},
	{"romsext", "§V future work — ROMS/HDF5 multi-file model + what-if exploration", romsext},
	{"streamext", "extension — streaming extraction over the binary trace format", streamext},
}

// selectExperiments resolves a -run flag value against the experiment
// registry, in canonical (registry) order. "all" — alone or inside a list —
// selects everything. Unknown or empty ids are an error, never silently
// skipped.
func selectExperiments(runFlag string) ([]experiment, error) {
	known := map[string]bool{}
	for _, ex := range experiments {
		known[ex.id] = true
	}
	want := map[string]bool{}
	all := false
	for _, id := range strings.Split(runFlag, ",") {
		id = strings.TrimSpace(id)
		switch {
		case id == "all":
			all = true
		case known[id]:
			want[id] = true
		default:
			want[id] = true // collect for the error below
		}
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment(s): %s (use -list)", strings.Join(unknown, ", "))
	}
	if !all && len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected (use -list)")
	}
	var out []experiment
	for _, ex := range experiments {
		if all || want[ex.id] {
			out = append(out, ex)
		}
	}
	return out, nil
}

// runExperiments executes the selection on `workers` pool workers, each
// into a private buffer, and writes the buffers to stdout in selection
// order — output is byte-identical regardless of workers. Per-experiment
// wall-clock goes to errout when verbose. Returns the effective worker
// count (0 resolves to GOMAXPROCS).
func runExperiments(selected []experiment, quick bool, workers int,
	stdout, errout io.Writer, verbose bool) int {
	workers = sweep.SetConcurrency(workers) // 0 resolves to GOMAXPROCS
	defer sweep.SetConcurrency(0)
	outputs := sweep.MapN(workers, selected, func(_ int, ex experiment) []byte {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "\n================================================================\n")
		fmt.Fprintf(&buf, "[%s] %s\n", ex.id, ex.title)
		fmt.Fprintf(&buf, "================================================================\n")
		start := time.Now()
		ex.run(&env{quick: quick, out: &buf})
		if verbose {
			fmt.Fprintf(errout, "[%s] finished in %.1fs\n", ex.id, time.Since(start).Seconds())
		}
		return buf.Bytes()
	})
	for _, out := range outputs {
		stdout.Write(out)
	}
	return workers
}

func main() {
	runFlag := flag.String("run", "all", "experiment ids (comma separated) or 'all'")
	quick := flag.Bool("quick", false, "scale class D down (fewer dumps) for fast smoke runs")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jobs := flag.Int("j", 0, "concurrent experiments (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "per-experiment timing and simulation-cache stats on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocs/heap profile to this file at exit")
	metrics := flag.String("metrics", "", "write run metrics to this file at exit (.json = JSON, else text)")
	timeline := flag.String("timeline", "", "write a Chrome trace_event timeline (Perfetto-loadable JSON) to this file at exit")
	faultsFlag := flag.String("faults", "", "fault scenario (preset name or scenario JSON path): append a degraded-mode delta analysis")
	fastpathFlag := flag.String("fastpath", "on", "analytic fast path for contention-free IOR replays: off, on, or verify (run both, panic on divergence)")
	flag.Parse()

	fpMode, err := iophases.ParseFastPath(*fastpathFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	iophases.SetFastPath(fpMode)

	// Enable run telemetry before any simulation is built: engines, links
	// and devices pick up their metric handles at construction time.
	if *metrics != "" || *timeline != "" {
		obs.SetEnabled(true)
	}
	if *timeline != "" {
		obs.StartTimeline(0)
	}

	stopProf, err := prof.Start(*cpuprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
		if err := prof.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	if *list {
		for _, ex := range experiments {
			fmt.Printf("%-12s %s\n", ex.id, ex.title)
		}
		return
	}

	selected, err := selectExperiments(*runFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	// Reject a bad -faults argument before any experiment runs: a typo or
	// a malformed scenario file must not cost the whole suite first.
	if *faultsFlag != "" {
		if _, err := iophases.ResolveFaults(*faultsFlag); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	workers := runExperiments(selected, *quick, *jobs, os.Stdout, os.Stderr, *verbose)
	if *faultsFlag != "" {
		if err := runFaultsAnalysis(*faultsFlag, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}
	if *verbose {
		hit, miss, bypass := simcache.Stats()
		total := hit + miss
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(hit) / float64(total)
		}
		fmt.Fprintf(os.Stderr,
			"simcache: %d hits / %d misses (%.0f%% hit rate), %d traced bypasses, %d entries, %d evictions\n",
			hit, miss, pct, bypass, simcache.Len(), simcache.Evictions())
		fpHits, fpBail := iophases.FastPathStats()
		fmt.Fprintf(os.Stderr, "fastpath: %d analytic / %d full-DES fallbacks\n", fpHits, fpBail)
		fmt.Fprintf(os.Stderr, "total wall-clock: %.1fs at -j %d\n",
			time.Since(start).Seconds(), workers)
	}
	if err := report.SaveTelemetry(*metrics, *timeline); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: telemetry: %v\n", err)
		os.Exit(1)
	}
	for _, note := range []struct{ what, path string }{{"metrics", *metrics}, {"timeline", *timeline}} {
		if note.path != "" {
			fmt.Fprintf(os.Stderr, "experiments: wrote %s to %s\n", note.what, note.path)
		}
	}
}
