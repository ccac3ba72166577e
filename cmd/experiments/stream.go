package main

import (
	"fmt"
	"os"

	"iophases"
)

// streamext demonstrates the bounded-memory extraction path: save a BT-IO
// trace in the binary on-disk format, re-extract it by streaming, and show
// the model is identical to the in-memory extraction — the property that
// lets traces far larger than memory be characterized.
func streamext(e *env) {
	fmt.Fprintln(e.out, "Extension — streaming extraction over the binary trace format. The")
	fmt.Fprintln(e.out, "trace is saved as delta-encoded per-rank binary files, then the model")
	fmt.Fprintln(e.out, "is extracted twice: materialized in memory, and streamed through the")
	fmt.Fprintln(e.out, "incremental miner with memory bounded by np, not trace length.")
	fmt.Fprintln(e.out)

	run := iophases.TraceBTIO(iophases.ConfigA(), 16, iophases.DefaultBTIO(iophases.ClassA), iophases.RunOptions{})
	inMem := iophases.Extract(run.Set)

	dir, err := os.MkdirTemp("", "streamext")
	if err != nil {
		fmt.Fprintf(e.out, "streamext: %v\n", err)
		return
	}
	defer os.RemoveAll(dir)
	if err := iophases.WriteTraceDir(run.Set.Source(), dir, iophases.TraceBinary); err != nil {
		fmt.Fprintf(e.out, "streamext: saving: %v\n", err)
		return
	}
	src, err := iophases.OpenTraceDir(dir)
	if err != nil {
		fmt.Fprintf(e.out, "streamext: opening: %v\n", err)
		return
	}
	streamed, err := iophases.ExtractStream(src)
	if err != nil {
		fmt.Fprintf(e.out, "streamext: extracting: %v\n", err)
		return
	}

	fmt.Fprint(e.out, streamed)
	if streamed.String() == inMem.String() && streamed.SameShape(inMem) {
		fmt.Fprintln(e.out, "\nstreamed extraction is byte-identical to the in-memory model.")
	} else {
		fmt.Fprintln(e.out, "\nstreamed extraction DIVERGES from the in-memory model:")
		for _, line := range streamed.Diff(inMem) {
			fmt.Fprintln(e.out, "  -", line)
		}
	}
}
