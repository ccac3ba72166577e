// Package iovet assembles the full analyzer suite — the single registry
// cmd/iovet, bench.sh and CI run. Adding an analyzer here is all it
// takes to enforce a new invariant tree-wide.
package iovet

import (
	"iophases/internal/analysis/detwall"
	"iophases/internal/analysis/dtopure"
	"iophases/internal/analysis/errdrop"
	"iophases/internal/analysis/fpfidelity"
	"iophases/internal/analysis/framework"
	"iophases/internal/analysis/mapdet"
	"iophases/internal/analysis/obspure"
	"iophases/internal/analysis/procblock"
)

// All returns the full suite in stable (alphabetical) order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		detwall.Analyzer,
		dtopure.Analyzer,
		errdrop.Analyzer,
		fpfidelity.Analyzer,
		mapdet.Analyzer,
		obspure.Analyzer,
		procblock.Analyzer,
	}
}

// KnownNames lists every analyzer name valid inside an
// //iovet:allow(...) list, independent of which subset is running.
func KnownNames() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}
