// Command iorsim runs the IOR benchmark replica on a simulated
// configuration, with the parameter surface of the paper's Table III.
//
// Usage:
//
//	iorsim -config configA -np 16 -b 64m -t 4m -s 1 -w -r
//	iorsim -config configB -np 8 -b 32m -t 1m -F        # file per process
//	iorsim -config configC -np 16 -b 256m -t 32m -c -e  # collective, fsync
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iophases"
	"iophases/internal/units"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit codes: 0 success, 1 a flag
// value the simulation cannot run, 2 a flag that does not parse.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("iorsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	config := fs.String("config", "configA", "target configuration")
	np := fs.Int("np", 4, "number of processes")
	b := fs.String("b", "64m", "block size per process (-b)")
	t := fs.String("t", "4m", "transfer size (-t)")
	s := fs.Int("s", 1, "segments (-s)")
	write := fs.Bool("w", true, "write pass (-w)")
	read := fs.Bool("r", true, "read pass (-r)")
	fpp := fs.Bool("F", false, "file per process (-F)")
	coll := fs.Bool("c", false, "collective I/O (-c)")
	fsync := fs.Bool("e", false, "fsync in timed write pass (-e)")
	reorder := fs.Bool("C", false, "reorder read tasks (-C)")
	inter := fs.Bool("z", false, "transfer-interleaved layout")
	if err := fs.Parse(argv); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "iorsim: "+format+"\n", args...)
		return 1
	}

	cfg, ok := iophases.ConfigByName(*config)
	if !ok {
		return fail("unknown configuration %q", *config)
	}
	if *np > cfg.MaxProcs() {
		return fail("%d processes exceed %s capacity (%d)", *np, cfg.Name, cfg.MaxProcs())
	}
	bs, err := units.ParseSize(*b)
	if err != nil {
		return fail("-b: %v", err)
	}
	ts, err := units.ParseSize(*t)
	if err != nil {
		return fail("-t: %v", err)
	}
	p := iophases.IORParams{
		NP: *np, BlockSize: bs, Transfer: ts, Segments: *s,
		DoWrite: *write, DoRead: *read, FilePerProc: *fpp,
		Collective: *coll, Fsync: *fsync, ReorderRead: *reorder,
		Interleaved: *inter,
	}
	if err := p.Validate(); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "IOR on %s: np=%d b=%s t=%s s=%d F=%v c=%v e=%v (aggregate %s/pass)\n",
		cfg.Name, *np, units.FormatBytes(bs), units.FormatBytes(ts), *s,
		*fpp, *coll, *fsync, units.FormatBytes(p.AggregateBytes()))
	res := iophases.RunIOR(cfg, p)
	if p.DoWrite {
		fmt.Fprintf(stdout, "write: %10.2f MB/s  %8.0f IOPS  %10.4f s\n",
			res.WriteBW.MBpsValue(), res.IOPSw, res.WriteTime.Seconds())
	}
	if p.DoRead {
		fmt.Fprintf(stdout, "read:  %10.2f MB/s  %8.0f IOPS  %10.4f s\n",
			res.ReadBW.MBpsValue(), res.IOPSr, res.ReadTime.Seconds())
	}
	return 0
}
