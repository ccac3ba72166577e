// Command ioexplore answers the questions the paper opens with — "When is
// it convenient to use a parallel or distributed file system? … I/O
// nodes? … RAID or single disks?" — for a concrete application model: it
// sweeps hypothetical configurations derived from a base one and ranks
// them by the model's estimated I/O time. No application run is needed on
// any of them.
//
// All variants' phase replays run concurrently on one worker pool (-j,
// default GOMAXPROCS); the ranking is deterministic at any width.
//
// Usage:
//
//	ioexplore -model model.json -base configA [-j 8]
package main

import (
	"flag"
	"fmt"
	"os"

	"iophases"
	"iophases/internal/obs"
	"iophases/internal/prof"
	"iophases/internal/report"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

func main() {
	modelPath := flag.String("model", "model.json", "model JSON produced by iomodel -save")
	base := flag.String("base", "configA", "base configuration to derive variants from")
	jobs := flag.Int("j", 0, "concurrent phase replays (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocs/heap profile to this file at exit")
	metrics := flag.String("metrics", "", "write run metrics to this file at exit (.json = JSON, else text)")
	timeline := flag.String("timeline", "", "write a Chrome trace_event timeline (Perfetto-loadable JSON) to this file at exit")
	faultsFlag := flag.String("faults", "", "fault scenario (preset name or scenario JSON path): append a degraded-mode delta table for the base configuration")
	fastpathFlag := flag.String("fastpath", "on", "analytic fast path for contention-free simulations: off, on, or verify (run both, panic on divergence)")
	flag.Parse()
	sweep.SetConcurrency(*jobs)

	fpMode, err := iophases.ParseFastPath(*fastpathFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
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
		fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
		}
		if err := prof.WriteHeap(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
		}
	}()

	m, err := iophases.LoadModel(*modelPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
		os.Exit(1)
	}
	cfg, ok := iophases.ConfigByName(*base)
	if !ok {
		fmt.Fprintf(os.Stderr, "ioexplore: unknown configuration %q\n", *base)
		os.Exit(1)
	}
	if m.NP > cfg.MaxProcs() {
		fmt.Fprintf(os.Stderr, "ioexplore: model needs %d processes; %s holds %d\n",
			m.NP, cfg.Name, cfg.MaxProcs())
		os.Exit(1)
	}

	fmt.Printf("what-if exploration for %s (%d processes, %d phases), base %s:\n\n",
		m.App, m.NP, len(m.Phases), cfg.Name)
	results, err := iophases.Explore(m, iophases.StandardVariants(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
		os.Exit(1)
	}
	var rows [][]string
	baselineSec := 0.0
	for _, r := range results {
		if r.Variant.Name == "baseline" {
			baselineSec = r.Total.Seconds()
		}
	}
	for rank, r := range results {
		speedup := "-"
		if baselineSec > 0 {
			speedup = fmt.Sprintf("%.2fx", baselineSec/r.Total.Seconds())
		}
		rows = append(rows, []string{
			fmt.Sprint(rank + 1), r.Variant.Name,
			fmt.Sprintf("%.2f s", r.Total.Seconds()), speedup,
		})
	}
	fmt.Print(report.Table("", []string{"rank", "variant", "Time_io(CH)", "vs baseline"}, rows))
	fmt.Printf("\nbest: %s\n", results[0].Variant.Name)

	if *faultsFlag != "" {
		sch, err := iophases.ResolveFaults(*faultsFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
			os.Exit(1)
		}
		cmp, err := iophases.CompareDegraded(m, cfg, sch, 512*units.MiB, 8*units.MiB)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ioexplore: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\ndegraded-mode analysis under scenario %q:\n\n", sch.Name)
		fmt.Print(report.Degraded(cmp))
	}

	if err := report.SaveTelemetry(*metrics, *timeline); err != nil {
		fmt.Fprintf(os.Stderr, "ioexplore: telemetry: %v\n", err)
		os.Exit(1)
	}
}
