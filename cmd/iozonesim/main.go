// Command iozonesim runs the IOzone benchmark replica directly against the
// I/O devices of a simulated configuration (the paper's Table IV surface),
// reporting per-pattern bandwidths and the configuration's peak BW_PK
// (Eq. 3–4).
//
// Usage:
//
//	iozonesim -config configA -s 2g -y 8m
//	iozonesim -config configB -s 1g -y 1m -pattern strided -stride 4
//	iozonesim -config configC -peak          # Eq. 3–4 summary only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iophases"
	"iophases/internal/cluster"
	"iophases/internal/iozone"
	"iophases/internal/report"
	"iophases/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit codes: 0 success, 1 a flag
// value the simulation cannot run, 2 a flag that does not parse.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iozonesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "configA", "target configuration")
	fz := fs.String("s", "2g", "file size (-s); the paper requires >= 2x RAM")
	rs := fs.String("y", "8m", "request size (-y)")
	pat := fs.String("pattern", "", "sequential | strided | random (default: all)")
	stride := fs.Int64("stride", 4, "stride count for -pattern strided")
	peak := fs.Bool("peak", false, "only report BW_PK per Eq. 3-4")
	if err := fs.Parse(argv); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "iozonesim: "+format+"\n", args...)
		return 1
	}

	cfg, ok := iophases.ConfigByName(*config)
	if !ok {
		return fail("unknown configuration %q", *config)
	}
	fileSize, err := units.ParseSize(*fz)
	if err != nil {
		return fail("-s: %v", err)
	}
	reqSize, err := units.ParseSize(*rs)
	if err != nil {
		return fail("-y: %v", err)
	}

	if *peak {
		if _, err := iozone.PeakParams(cfg, fileSize, reqSize); err != nil {
			return fail("%v", err)
		}
		w, r := iophases.PeakBandwidth(cfg, fileSize, reqSize)
		fmt.Fprintf(stdout, "BW_PK(%s) over %d I/O node(s): write %.1f MB/s, read %.1f MB/s\n",
			cfg.Name, cfg.Storage.IONodes, w.MBpsValue(), r.MBpsValue())
		return 0
	}

	patterns := []iozone.Pattern{iozone.Sequential, iozone.Strided, iozone.Random}
	if *pat != "" {
		patterns = []iozone.Pattern{iozone.Pattern(*pat)}
	}
	runs := make([]iophases.IOzoneParams, len(patterns))
	for i, p := range patterns {
		runs[i] = iophases.IOzoneParams{
			FileSize: fileSize, RequestSize: reqSize,
			Pattern: p, StrideCount: *stride,
		}
		if err := runs[i].Validate(); err != nil {
			return fail("%v", err)
		}
	}
	var rows [][]string
	for ion := 0; ion < cfg.Storage.IONodes; ion++ {
		for _, params := range runs {
			c := cluster.Build(cfg)
			res := iozone.RunOnDevice(c.Eng, c.IODevice(ion), params)
			rows = append(rows, []string{
				fmt.Sprintf("ion%02d", ion), string(params.Pattern),
				units.FormatBytes(fileSize), units.FormatBytes(reqSize),
				fmt.Sprintf("%.1f", res.WriteBW.MBpsValue()),
				fmt.Sprintf("%.1f", res.ReadBW.MBpsValue()),
				fmt.Sprintf("%.0f", res.IOPSw),
				fmt.Sprintf("%.0f", res.IOPSr),
			})
		}
	}
	fmt.Fprint(stdout, report.Table(
		fmt.Sprintf("IOzone on %s devices", cfg.Name),
		[]string{"node", "pattern", "FZ", "RS", "BW_w", "BW_r", "IOPS_w", "IOPS_r"}, rows))
	return 0
}
