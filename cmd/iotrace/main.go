// Command iotrace runs an application kernel on a simulated I/O
// configuration with the PAS2P-style interposition tracer and writes the
// per-rank trace files plus metadata — the characterization stage of the
// paper (§III-A). It also converts saved trace directories between the
// text and binary encodings and generates synthetic traces for
// streaming-pipeline benchmarks. Every directory it writes goes through
// trace.WriteDir, and -format takes trace.ParseFormat's names: text or
// binary.
//
// Usage:
//
//	iotrace -app madbench2 -config configA -np 16 -out traces/
//	iotrace -app btio -class C -np 16 -config configB -out traces/
//	iotrace -app btio -class D -np 64 -subtype simple -out traces/
//	iotrace -app btio -np 16 -out traces/ -format binary
//	iotrace -convert traces/ -out traces-bin/ -format binary
//	iotrace -synth -np 8 -events 10000000 -out synth/ -format binary
package main

import (
	"flag"
	"fmt"
	"os"

	"iophases"
	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/trace"
	"iophases/internal/units"
)

func main() {
	app := flag.String("app", "madbench2", "application kernel: madbench2 | btio | roms")
	config := flag.String("config", "configA", "configuration: configA | configB | configC | finisterrae")
	np := flag.Int("np", 16, "number of MPI processes")
	out := flag.String("out", "traces", "output directory for trace files")
	class := flag.String("class", "C", "BT-IO class: A | B | C | D | W")
	subtype := flag.String("subtype", "full", "BT-IO subtype: full | simple | epio")
	nbin := flag.Int("nbin", 8, "MADBench2 bin count")
	kpix := flag.Int("kpix", 8, "MADBench2 pixel count (KPIX); sets the request size")
	format := flag.String("format", "text", "per-rank trace encoding: text | binary")
	convert := flag.String("convert", "", "re-encode this saved trace directory into -out with -format")
	synth := flag.Bool("synth", false, "generate a synthetic trace instead of running a kernel")
	events := flag.Int64("events", 1_000_000, "synthetic events per rank (-synth)")
	flag.Parse()

	f, err := trace.ParseFormat(*format)
	if err != nil {
		fail("%v", err)
	}

	if *convert != "" {
		if err := iophases.ConvertTraces(*convert, *out, f); err != nil {
			fail("converting %s: %v", *convert, err)
		}
		fmt.Printf("converted %s to %s (%s per-rank files)\n", *convert, *out, f)
		return
	}

	if *synth {
		src, err := iophases.SynthTraces(iophases.SynthSpec{NP: *np, EventsPerRank: *events})
		if err != nil {
			fail("%v", err)
		}
		if err := iophases.WriteTraceDir(src, *out, f); err != nil {
			fail("writing synthetic trace: %v", err)
		}
		fmt.Printf("synthetic trace saved to %s: np=%d, %d events/rank, %s format\n",
			*out, *np, *events, f)
		return
	}

	cfg, ok := iophases.ConfigByName(*config)
	if !ok {
		fail("unknown configuration %q", *config)
	}
	if *np > cfg.MaxProcs() {
		fail("%d processes exceed %s capacity (%d)", *np, cfg.Name, cfg.MaxProcs())
	}
	if err := checkFlags(*app, *np, *nbin, *kpix, *subtype); err != nil {
		fail("%v", err)
	}

	var res iophases.RunResult
	switch *app {
	case "madbench2":
		params := madbenchParams(*nbin, *kpix, *np)
		fmt.Printf("tracing MADBench2: np=%d nbin=%d rs=%s on %s\n",
			*np, *nbin, units.FormatBytes(params.RS), cfg.Name)
		res = iophases.TraceMADBench2(cfg, *np, params, iophases.RunOptions{})
	case "btio":
		cl, ok := iophases.BTIOClassByName(*class)
		if !ok {
			fail("unknown BT-IO class %q", *class)
		}
		params := iophases.DefaultBTIO(cl)
		params.Subtype = *subtype
		fmt.Printf("tracing BT-IO class %s (%s): np=%d rs=%s on %s\n",
			cl.Name, *subtype, *np, units.FormatBytes(cl.RS(*np)), cfg.Name)
		res = iophases.TraceBTIO(cfg, *np, params, iophases.RunOptions{})
	case "roms":
		params := iophases.DefaultROMS()
		fmt.Printf("tracing ROMS upwelling: np=%d grid=%dx%dx%d on %s\n",
			*np, params.NX, params.NY, params.NZ, cfg.Name)
		res = iophases.TraceROMS(cfg, *np, params, iophases.RunOptions{})
	default:
		fail("unknown app %q (madbench2 | btio | roms)", *app)
	}

	if err := iophases.WriteTraceDir(res.Set.Source(), *out, f); err != nil {
		fail("saving traces: %v", err)
	}
	w, r := res.Set.TotalBytes()
	fmt.Printf("run complete: %v virtual time, %s written, %s read\n",
		res.Elapsed, units.FormatBytes(w), units.FormatBytes(r))
	fmt.Printf("traces saved to %s (meta.json + trace.<rank>%s)\n", *out, f.Ext())
}

// madbenchParams is the MADBench2 run the -nbin and -kpix flags describe.
func madbenchParams(nbin, kpix, np int) iophases.MADBenchParams {
	p := iophases.DefaultMADBench()
	p.NBin = nbin
	p.RS = madbench.KPixRS(kpix, np)
	return p
}

// checkFlags rejects flag values the kernels cannot run, so a bad command
// line ends in one error line instead of a panic halfway through tracing.
func checkFlags(app string, np, nbin, kpix int, subtype string) error {
	if np < 1 {
		return fmt.Errorf("-np %d: need at least one process", np)
	}
	switch app {
	case "madbench2":
		if kpix < 1 {
			return fmt.Errorf("-kpix %d: need a positive pixel count", kpix)
		}
		return madbenchParams(nbin, kpix, np).Validate(np)
	case "btio":
		if subtype != btio.Full && subtype != btio.Simple && subtype != btio.Epio {
			return fmt.Errorf("unknown BT-IO subtype %q (full | simple | epio)", subtype)
		}
		return btio.ValidateNP(np)
	}
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "iotrace: "+format+"\n", args...)
	os.Exit(1)
}
