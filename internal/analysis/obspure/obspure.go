// Package obspure implements the iovet analyzer that keeps simulation
// packages observationally pure.
//
// Two invariants from DESIGN.md §8: (1) all user-visible output flows
// through internal/report — a simulation layer that prints directly to
// stdout/stderr (fmt.Print*, the log package, os.Stdout/os.Stderr)
// breaks the byte-identical-output guarantees that the telemetry and
// parallel-determinism smoke tests pin; (2) telemetry handles must be
// fetched from the process-wide registry (obs.Hot / obs.Default), whose
// nil-safe handles make disabled telemetry a single branch — a freshly
// constructed private registry in a simulation layer silently forks the
// metric namespace and bypasses the enable gate.
package obspure

import (
	"go/types"
	"path"

	"iophases/internal/analysis/framework"
)

// simPkgs are the final import-path elements of the simulation
// packages: the layers whose behavior feeds simulated results. Matching
// on the last element (rather than the full iophases/internal/ prefix)
// lets analyzer corpora under testdata/src/<name> opt into the same
// scoping rules the real packages get.
var simPkgs = map[string]bool{
	"des":      true,
	"disksim":  true,
	"netsim":   true,
	"fsim":     true,
	"mpiio":    true,
	"phase":    true,
	"predict":  true,
	"replay":   true,
	"faults":   true,
	"simcache": true,
	"fastpath": true,
	"coexec":   true,
	"schedule": true,
	"trace":    true,
	"pattern":  true,
	// The prediction service: not a simulation layer itself, but its
	// byte-identical-response invariant (DESIGN.md §13) imposes the same
	// purity rules — no stray output, and telemetry handles come from
	// the shared registry.
	"serve": true,
}

// Analyzer flags direct output and private obs registries in simulation
// packages.
var Analyzer = &framework.Analyzer{
	Name: "obspure",
	Doc: "forbid direct stdout/stderr/log writes and private obs registries in simulation packages\n\n" +
		"User-visible output flows through internal/report; telemetry handles come\n" +
		"from obs.Hot()/obs.Default() so the disabled state stays one nil branch.",
	Run: run,
}

func run(pass *framework.Pass) error {
	if !simPkgs[path.Base(pass.Pkg.Path())] {
		return nil
	}
	for ident, obj := range pass.TypesInfo.Uses {
		pkg := obj.Pkg()
		if pkg == nil {
			continue
		}
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
			continue // methods: logger.Printf on an injected writer is report's business
		}
		switch pkg.Path() {
		case "fmt":
			switch obj.Name() {
			case "Print", "Printf", "Println":
				pass.Reportf(ident.Pos(), "fmt.%s writes to stdout from a simulation package; route output through internal/report", obj.Name())
			}
		case "log":
			pass.Reportf(ident.Pos(), "log.%s writes to stderr from a simulation package; route output through internal/report", obj.Name())
		case "os":
			switch obj.Name() {
			case "Stdout", "Stderr":
				pass.Reportf(ident.Pos(), "os.%s used from a simulation package; route output through internal/report", obj.Name())
			}
		case "iophases/internal/obs":
			if obj.Name() == "NewRegistry" {
				pass.Reportf(ident.Pos(), "obs.NewRegistry constructs a private registry in a simulation package; fetch nil-safe handles from obs.Hot() or obs.Default()")
			}
		}
	}
	return nil
}
