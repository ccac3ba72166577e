package simcache

import (
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/ior"
	"iophases/internal/units"
)

// BenchmarkFingerprint times one replay key: Finisterrae and the IOR
// parameters of a write phase's replay, the pair every what-if variant
// fingerprints per phase.
func BenchmarkFingerprint(b *testing.B) {
	spec := cluster.Finisterrae()
	p := ior.FromReplay(core.ReplaySpec{
		PhaseID: 1, NP: 1, BlockPerProc: 64 * units.MiB, Transfer: units.MiB,
		Segments: 1, Direction: core.Write,
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fingerprint(spec, p)
	}
}

// BenchmarkFingerprintCoexec times one co-execution key: two apps sharing
// configA, each with an extracted MADBench2 model.
func BenchmarkFingerprintCoexec(b *testing.B) {
	spec := coexecPair(coexecModel(b, units.MiB), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FingerprintCoexec(spec)
	}
}
