package predict

import (
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

// tinySpec is configA cut to one core: too small for any multi-rank model.
func tinySpec(name string) cluster.Spec {
	s := cluster.ConfigA()
	s.Name = name
	s.ComputeNodes, s.CoresPerNode = 1, 1
	return s
}

// negativeOffsetModel copies m with every mixed phase's offset function
// shifted below zero, which only the phase-faithful replay rejects.
func negativeOffsetModel(m *core.Model) *core.Model {
	neg := *m
	neg.Phases = append([]*core.PhaseModel(nil), m.Phases...)
	for i, pm := range neg.Phases {
		if len(pm.Ops) > 1 {
			bad := *pm
			bad.OffsetC = -1 << 30
			neg.Phases[i] = &bad
		}
	}
	return &neg
}

// TestMultiSpecErrorsFollowGivenOrder mixes valid configurations with
// failing ones (too few cores; a faithful replay at a negative offset) and
// checks that Explore and SelectConfig report the first failing
// configuration in the given order, with the serial loop's text, however
// wide the sweep pool.
func TestMultiSpecErrorsFollowGivenOrder(t *testing.T) {
	good := measureMadbench(t, cluster.ConfigA(), 4, units.MiB)
	neg := negativeOffsetModel(good)
	capacity := func(cfg string) string {
		return "predict: madbench2 phase 1 needs 4 ranks but " + cfg + " has capacity 1"
	}
	const negOffset = "replay: madbench2 phase 3: slot 0 of rank 0, repetition 0, starts at negative offset -1073741824"
	v := func(name string, spec cluster.Spec) Variant { return Variant{Name: name, Spec: spec} }
	explores := []struct {
		m        *core.Model
		variants []Variant
		want     string
	}{
		{good, []Variant{v("a", cluster.ConfigA()), v("t1", tinySpec("tiny1")), v("t2", tinySpec("tiny2"))},
			"variant t1: " + capacity("tiny1")},
		{neg, []Variant{v("t1", tinySpec("tiny1")), v("a", cluster.ConfigA())},
			"variant t1: " + capacity("tiny1")},
		{neg, []Variant{v("c", cluster.ConfigC()), v("t1", tinySpec("tiny1")), v("a", cluster.ConfigA())},
			"variant c: " + negOffset},
		{neg, []Variant{v("a", cluster.ConfigA()), v("c", cluster.ConfigC())},
			"variant a: " + negOffset},
	}
	selects := []struct {
		specs []cluster.Spec
		want  string
	}{
		{[]cluster.Spec{cluster.ConfigA(), tinySpec("tiny1"), tinySpec("tiny2")}, capacity("tiny1")},
		{[]cluster.Spec{tinySpec("tiny2"), cluster.ConfigC(), tinySpec("tiny1")}, capacity("tiny2")},
	}
	for _, j := range []int{1, 4} {
		func() {
			defer sweep.SetConcurrency(0)
			sweep.SetConcurrency(j)
			simcache.Reset()
			for i, tc := range explores {
				_, err := ExploreOpts(tc.m, tc.variants, EstimateOptions{FaithfulMixed: true})
				if err == nil || err.Error() != tc.want {
					t.Errorf("-j %d explore case %d: err = %v\nwant %s", j, i, err, tc.want)
				}
			}
			for i, tc := range selects {
				_, _, err := SelectConfig(good, tc.specs)
				if err == nil || err.Error() != tc.want {
					t.Errorf("-j %d select case %d: err = %v\nwant %s", j, i, err, tc.want)
				}
			}
		}()
	}
}
