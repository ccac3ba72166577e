// Command iomodel extracts the application I/O abstract model from traces
// produced by iotrace: local access patterns, cross-rank I/O phases with
// weights and offset functions, and derived metadata (§III-A1). The model
// can be saved as JSON for use by iopredict on other configurations.
//
// Usage:
//
//	iomodel -traces traces/ -save model.json
//	iomodel -traces traces/ -laps      # also print per-rank LAP tables
//	iomodel -traces traces/ -pattern   # also print the access-pattern plot
//
// The traces are never materialized: events flow from the per-rank files
// (text or binary) through the incremental miner, so memory stays bounded
// by process count and pattern count. Only -summary loads the events.
// -memlimit N additionally checks at exit that the heap stayed under N
// bytes (for the CI memory smoke).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"iophases"
	"iophases/internal/pattern"
	"iophases/internal/report"
	"iophases/internal/trace"
)

func main() {
	dir := flag.String("traces", "traces", "directory with meta.json and per-rank trace files")
	save := flag.String("save", "", "write the model as JSON to this path")
	laps := flag.Bool("laps", false, "print local access patterns per rank (Figure 3)")
	plot := flag.Bool("pattern", false, "print the global access pattern plot (Figure 5)")
	summary := flag.Bool("summary", false, "print a darshan-style aggregate summary")
	ranks := flag.Int("lapranks", 4, "how many ranks to print LAPs for")
	compare := flag.String("compare", "", "compare against another saved model (independence check)")
	memlimit := flag.Int64("memlimit", 0, "fail (exit 3) if the heap exceeded this many bytes at exit")
	flag.Parse()

	src, err := iophases.OpenTraceDir(*dir)
	if err != nil {
		fail("opening traces: %v", err)
	}
	if *laps {
		n := min(*ranks, src.Meta().NP)
		for rank := 0; rank < n; rank++ {
			miner := pattern.NewMiner(rank)
			err := trace.Each(src, rank, func(evs []trace.Event) error {
				miner.Feed(evs)
				return nil
			})
			if err != nil {
				fail("reading traces: %v", err)
			}
			fmt.Printf("Local access patterns, process %d:\n%s\n", rank, pattern.FormatTable(miner.Finish()))
		}
	}
	if *summary {
		set, err := trace.ReadSet(src)
		if err != nil {
			fail("loading traces: %v", err)
		}
		fmt.Println(trace.Summarize(set))
	}
	m, err := iophases.ExtractStream(src)
	if err != nil {
		fail("extracting: %v", err)
	}
	fmt.Println(m)

	if *plot {
		var pts []report.ScatterPoint
		for _, ap := range m.AccessPoints() {
			marker := byte('W')
			if ap.Dir == "R" {
				marker = 'R'
			}
			pts = append(pts, report.ScatterPoint{X: float64(ap.Tick), Y: float64(ap.Offset), Marker: marker})
		}
		fmt.Println(report.Scatter("Global access pattern", 100, 24, pts))
	}

	if *compare != "" {
		other, err := iophases.LoadModel(*compare)
		if err != nil {
			fail("loading %s: %v", *compare, err)
		}
		if m.SameShape(other) {
			fmt.Printf("models are identical in shape (traced on %s vs %s):\n",
				m.SourceConfig, other.SourceConfig)
			fmt.Println("the I/O model is independent of the subsystem.")
		} else {
			fmt.Println("models DIFFER:")
			for _, line := range m.Diff(other) {
				fmt.Println("  -", line)
			}
			os.Exit(1)
		}
	}

	if *save != "" {
		if err := m.Save(*save); err != nil {
			fail("saving model: %v", err)
		}
		fmt.Printf("model saved to %s\n", *save)
	}

	if *memlimit > 0 {
		// HeapSys only grows, so it reflects the peak heap footprint; the
		// report goes to stderr to keep stdout byte-comparable across modes.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapSys > uint64(*memlimit) {
			fmt.Fprintf(os.Stderr, "iomodel: heap peaked at %d bytes, over the %d-byte limit\n",
				ms.HeapSys, *memlimit)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "iomodel: heap peaked at %d bytes (limit %d)\n", ms.HeapSys, *memlimit)
	}
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "iomodel: "+format+"\n", args...)
	os.Exit(1)
}
