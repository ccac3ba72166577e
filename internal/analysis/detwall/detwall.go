// Package detwall implements the iovet analyzer that keeps wall-clock
// time and unseeded randomness out of the module's library packages.
//
// The simulator's core guarantee — the same inputs produce bit-identical
// tables at any -j, with telemetry on or off, across runs (DESIGN.md §5)
// — holds only if nothing the simulation can call reads a source that
// varies between runs: the wall clock, the global math/rand stream,
// crypto entropy, or process identity. The check runs where the source
// is read, in every non-main package, so a helper cannot launder a
// clock read for a caller in another package. The exemptions are the
// packages that measure the process rather than the simulation (obs,
// sweep) and serve's one wall-clock seam file. Seeded randomness is
// legal, but only through an explicit *rand.Rand carried by
// faults.Schedule (DESIGN.md §9); rand.New/rand.NewSource therefore
// pass while every global-stream function is flagged.
package detwall

import (
	"go/types"
	"path"
	"path/filepath"

	"iophases/internal/analysis/framework"
)

// Analyzer flags wall-clock and global-randomness sources in library
// packages.
var Analyzer = &framework.Analyzer{
	Name: "detwall",
	Doc: "forbid wall-clock time and unseeded randomness in library packages\n\n" +
		"Library code may consult only virtual time (des.Engine.Now) and the\n" +
		"seeded per-schedule rand stream (faults.Schedule); anything else breaks\n" +
		"run-to-run bit-determinism (DESIGN.md §5, §9). Commands (package main),\n" +
		"the measurement packages obs and sweep, and serve/clock.go are exempt.",
	Run: run,
}

// anyName in a forbidden set matches every object of the package.
const anyName = "*"

// forbidden maps package path -> object name -> why it is illegal.
var forbidden = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"Sleep":     "blocks on real time (use Proc.Sleep for virtual time)",
		"After":     "fires on real time",
		"AfterFunc": "fires on real time",
		"Tick":      "fires on real time",
		"NewTimer":  "fires on real time",
		"NewTicker": "fires on real time",
	},
	"math/rand": {
		"Seed":        "reseeds the global stream",
		"Int":         "draws from the global stream",
		"Intn":        "draws from the global stream",
		"Int31":       "draws from the global stream",
		"Int31n":      "draws from the global stream",
		"Int63":       "draws from the global stream",
		"Int63n":      "draws from the global stream",
		"Uint32":      "draws from the global stream",
		"Uint64":      "draws from the global stream",
		"Float32":     "draws from the global stream",
		"Float64":     "draws from the global stream",
		"ExpFloat64":  "draws from the global stream",
		"NormFloat64": "draws from the global stream",
		"Perm":        "draws from the global stream",
		"Shuffle":     "draws from the global stream",
		"Read":        "draws from the global stream",
	},
	// math/rand/v2 has no Seed at all — every top-level function is
	// implicitly seeded from runtime entropy.
	"math/rand/v2": {anyName: "draws from a runtime-seeded stream"},
	"crypto/rand":  {anyName: "reads crypto entropy"},
	"os": {
		"Getpid":  "reads process identity",
		"Getppid": "reads process identity",
	},
}

// measureOnly are the packages whose job is measuring the process
// itself — telemetry timelines (obs) and sweep-pool utilization
// (sweep). Their wall-clock reads never feed simulated state. Keyed by
// package base name, like wallSeams, so corpus packages under
// testdata/src/<name> exercise the same exemption.
var measureOnly = map[string]bool{"obs": true, "sweep": true}

// wallSeams allowlists the one file per package that is allowed to read
// the wall clock: a sanctioned seam whose callers measure the *server*
// (latency histograms, access-log timestamps), never the simulation.
// Keyed by package base name then file base name. Everything outside
// the seam file — including the rest of its package — is still
// flagged, which forces new wall-clock reads through the seam where
// they stay greppable and out of response bodies.
var wallSeams = map[string]map[string]bool{
	"serve": {"clock.go": true},
}

func run(pass *framework.Pass) error {
	base := path.Base(pass.Pkg.Path())
	if pass.Pkg.Name() == "main" || measureOnly[base] {
		return nil
	}
	seam := wallSeams[base]
	// Uses iterates in map order; the driver sorts every diagnostic, so
	// findings are reported as they are met.
	for ident, obj := range pass.TypesInfo.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		// Methods are legal: rng.Float64() on an explicit, seeded
		// *rand.Rand is exactly the sanctioned pattern. Only
		// package-level sources (the global stream, the wall clock)
		// are forbidden.
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			continue
		}
		byName, ok := forbidden[pkg.Path()]
		if !ok {
			continue
		}
		why, ok := byName[obj.Name()]
		if !ok {
			why, ok = byName[anyName]
		}
		if !ok || seam[filepath.Base(pass.Fset.Position(ident.Pos()).Filename)] {
			continue
		}
		pass.Reportf(ident.Pos(), "%s.%s %s: library packages may use only virtual time and seeded faults.Schedule randomness (wall-clock measurement belongs in obs, sweep or serve/clock.go)", pkg.Path(), obj.Name(), why)
	}
	return nil
}
