package simcache_test

import (
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/ior"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/predict"
	"iophases/internal/runner"
	"iophases/internal/simcache"
	"iophases/internal/units"
)

// traced extracts the model of one traced run of prog on configA.
func traced(app string, np int, prog func(sys *mpiio.System) func(*mpi.Rank)) *core.Model {
	return core.Build(runner.Run(cluster.ConfigA(), np, app, prog, runner.Options{Trace: true}).Set)
}

// A Target keys a replay with exactly Fingerprint's bytes, for every
// preset and every StandardVariants spec crossed with every phase replay
// of a MADBench2 and a BT-IO model. Callers count distinct replays with
// Fingerprint, so the cache must agree with it.
func TestTargetKeyIsFingerprint(t *testing.T) {
	mp := madbench.Default()
	mp.RS = units.MiB
	models := []*core.Model{
		traced("madbench2", 4, func(sys *mpiio.System) func(*mpi.Rank) { return madbench.Program(sys, mp) }),
		traced("btio", 4, func(sys *mpiio.System) func(*mpi.Rank) { return btio.Program(sys, btio.Default(btio.ClassW)) }),
	}
	var specs []cluster.Spec
	for _, base := range cluster.Presets() {
		specs = append(specs, base)
		for _, v := range predict.StandardVariants(base) {
			specs = append(specs, v.Spec)
		}
	}
	keys := 0
	for _, spec := range specs {
		target := simcache.NewTarget(spec)
		for _, m := range models {
			for _, pm := range m.Phases {
				p := ior.FromReplay(pm.Replay(m.AccessType))
				if got, want := simcache.TargetKey(&target, p), simcache.Fingerprint(spec, p); got != want {
					t.Fatalf("%s, %s phase %d: target key %x, Fingerprint %x", spec.Name, m.App, pm.ID, got, want)
				}
				keys++
			}
		}
	}
	if keys < 100 {
		t.Fatalf("only %d keys compared", keys)
	}
}
