package main

import (
	"fmt"
	"os"

	"iophases"
)

// streamext demonstrates the bounded-memory extraction path: save a BT-IO
// trace in the binary on-disk format, extract the model from the decoded
// files, and show it is identical to the model of the resident trace —
// the property that lets traces far larger than memory be characterized.
// Both extractions stream through the same miner; only the source differs.
func streamext(e *env) {
	fmt.Fprintln(e.out, "Extension — streaming extraction over the binary trace format. The")
	fmt.Fprintln(e.out, "trace is saved as delta-encoded per-rank binary files (IOBIN1). The")
	fmt.Fprintln(e.out, "model is extracted twice by the same incremental miner, with memory")
	fmt.Fprintln(e.out, "bounded by np, not trace length. Only the source differs: the trace's")
	fmt.Fprintln(e.out, "resident per-rank slices, then the decoded IOBIN1 files.")
	fmt.Fprintln(e.out)

	run := iophases.TraceBTIO(iophases.ConfigA(), 16, iophases.DefaultBTIO(iophases.ClassA), iophases.RunOptions{})
	resident := iophases.Extract(run.Set)

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
	decoded, err := iophases.ExtractStream(src)
	if err != nil {
		fmt.Fprintf(e.out, "streamext: extracting: %v\n", err)
		return
	}

	fmt.Fprint(e.out, decoded)
	if decoded.String() == resident.String() && decoded.SameShape(resident) {
		fmt.Fprintln(e.out, "\nthe model from the IOBIN1 files is byte-identical to the resident trace's.")
	} else {
		fmt.Fprintln(e.out, "\nthe model from the IOBIN1 files DIVERGES from the resident trace's:")
		for _, line := range decoded.Diff(resident) {
			fmt.Fprintln(e.out, "  -", line)
		}
	}
}
