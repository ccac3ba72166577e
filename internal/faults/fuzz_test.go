package faults_test

import (
	"encoding/json"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/faults"
	"iophases/internal/ior"
	"iophases/internal/units"
)

// FuzzScenario decodes scenario JSON as faults.Load does. Every scenario
// that validates must drive a small IOR run to completion with its
// virtual clock intact, on configA (one NFS target, so each transfer runs
// inline on its rank) and on configB (its 512 KiB transfers span all
// three 64 KiB-striped targets, so each runs as chunk legs): a service
// time, flap cycle or window past int64 nanoseconds wraps the clock, and
// a wrapped sleep panics. The committed seeds are the five presets and
// three scenarios that once crashed.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var s faults.Schedule
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		for _, e := range s.Effects {
			if e.OpCount > 1000 {
				t.Skip("a larger transient-error budget only lengthens the retry loop")
			}
		}
		for _, spec := range []cluster.Spec{cluster.ConfigA(), cluster.ConfigB()} {
			spec.Faults = &s
			c := cluster.Build(spec)
			res := ior.RunOn(c, ior.Params{
				NP: 4, BlockSize: 2 * units.MiB, Transfer: 512 * units.KiB, Segments: 1,
				DoWrite: true, DoRead: true, Fsync: true,
			})
			if c.Eng.Now() < 0 || res.WriteTime < 0 || res.ReadTime < 0 {
				t.Fatalf("%s: virtual clock wrapped: ended at %v, write %v, read %v", spec.Name, c.Eng.Now(), res.WriteTime, res.ReadTime)
			}
		}
	})
}
