package detwall_test

import (
	"testing"

	"iophases/internal/analysis/analysistest"
	"iophases/internal/analysis/detwall"
)

func TestSimPackage(t *testing.T) {
	analysistest.Run(t, "./testdata/src/des", detwall.Analyzer)
}

// The util corpus is a helper outside the simulation layers: its
// sources are flagged where they are read, including a clock handed
// out as a package-level value.
func TestNonSimPackage(t *testing.T) {
	analysistest.Run(t, "./testdata/src/util", detwall.Analyzer)
}

// The exempt corpus holds the packages detwall leaves alone: the
// measurement packages (matched by base name) and package main.
func TestExemptPackages(t *testing.T) {
	analysistest.Run(t, "./testdata/src/exempt/...", detwall.Analyzer)
}

// The serve corpus pins the wall-clock seam: clock.go is exempt, every
// other file in the package is not.
func TestServeSeamFile(t *testing.T) {
	analysistest.Run(t, "./testdata/src/serve", detwall.Analyzer)
}
