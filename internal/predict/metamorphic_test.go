package predict

import (
	"fmt"
	"testing"

	"iophases/internal/apps/btio"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/units"
)

// slowDiskFactors are the slow-disk factors TestSlowDiskNeverLowersTimeIO
// applies to every disk, in increasing order.
var slowDiskFactors = []float64{1.02, 1.05, 1.1, 1.2, 1.3, 1.5, 2, 2.5, 3, 4, 5, 6, 8}

// TestSlowDiskNeverLowersTimeIO is a metamorphic property of Eq. 1: on
// configB, making every disk slower never lowers a model's Time_io. Each
// model is estimated healthy and at each factor of slowDiskFactors, and
// Time_io must not fall from one factor to the next: MADBench2 (traced on
// configA) at np 4, 8 and 16 and BT-IO class A (traced on configC) at np
// 4, 9 and 16, 84 estimates in all.
//
// The property is not asserted on configurations with a server write-back
// cache, where it does not hold: there a slower disk can let the flusher
// gather larger aligned writes and pay fewer RAID5 read-modify-writes
// (BT-IO class A at np 9 on configA reads 14.901 s healthy and 14.321 s
// at factor 1.2).
func TestSlowDiskNeverLowersTimeIO(t *testing.T) {
	specs := []cluster.Spec{cluster.ConfigB()}
	for _, f := range slowDiskFactors {
		spec := cluster.ConfigB()
		spec.Faults = &faults.Schedule{Name: fmt.Sprintf("slow-disk-%v", f), Effects: []faults.Effect{
			{Kind: faults.SlowDisk, Factor: f},
		}}
		specs = append(specs, spec)
	}
	type model struct {
		name string
		m    *core.Model
	}
	var models []model
	for _, np := range []int{4, 8, 16} {
		models = append(models, model{fmt.Sprintf("madbench2 np %d", np), measureMadbench(t, cluster.ConfigA(), np, 4*units.MiB)})
	}
	for _, np := range []int{4, 9, 16} {
		models = append(models, model{fmt.Sprintf("btio A np %d", np), measureBTIO(t, cluster.ConfigC(), np, btio.ClassA)})
	}
	for _, md := range models {
		ests, _, err := EstimateAll(md.m, specs, EstimateOptions{})
		if err != nil {
			t.Fatalf("%s: %v", md.name, err)
		}
		for i := 1; i < len(ests); i++ {
			prev, cur := ests[i-1].TotalCH, ests[i].TotalCH
			if cur < prev {
				was := "healthy"
				if i > 1 {
					was = fmt.Sprintf("factor %v", slowDiskFactors[i-2])
				}
				t.Errorf("%s: Time_io %v at slow-disk factor %v, below %v at %s", md.name, cur, slowDiskFactors[i-1], prev, was)
			}
		}
	}
}
