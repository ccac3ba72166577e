package simcache

import (
	"reflect"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/faults"
	"iophases/internal/ior"
)

// A fault schedule is part of a configuration's physical identity: the
// fingerprint must separate healthy from degraded — and scenarios from
// each other — so a degraded replay can never be served a healthy run's
// cached bandwidth (or vice versa).
func TestKeySeparatesFaultSchedules(t *testing.T) {
	p := testParams()
	healthy := cluster.ConfigA()

	degraded := cluster.ConfigA()
	degraded.Faults = &faults.Schedule{Name: "s", Effects: []faults.Effect{
		{Kind: faults.SlowDisk, Factor: 3},
	}}
	if Fingerprint(healthy, p) == Fingerprint(degraded, p) {
		t.Fatal("degraded spec fingerprints like the healthy one")
	}

	worse := cluster.ConfigA()
	worse.Faults = &faults.Schedule{Name: "s", Effects: []faults.Effect{
		{Kind: faults.SlowDisk, Factor: 4},
	}}
	if Fingerprint(degraded, p) == Fingerprint(worse, p) {
		t.Fatal("schedules with different factors share a fingerprint")
	}
}

// A spec's name prefixes its link names, and a fault effect's Match
// selects links by substring, so a renamed copy of a spec under a link
// fault that names the configuration runs healthy. Each spec must get its
// own run's result, never the other's cached one.
func TestRenamedSpecUnderLinkFaultGetsItsOwnRun(t *testing.T) {
	Reset()
	defer Reset()
	p := testParams()
	spec := cluster.ConfigA()
	spec.Faults = &faults.Schedule{Name: "link", Effects: []faults.Effect{
		{Kind: faults.LinkDegraded, Match: "configA/", Factor: 8},
	}}
	renamed := spec
	renamed.Name = "configA-renamed"
	for _, s := range []cluster.Spec{spec, renamed} {
		if got, want := RunIOR(s, p), ior.Run(s, p); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RunIOR write time %v, a fresh ior.Run gives %v", s.Name, got.WriteTime, want.WriteTime)
		}
	}
}

// Degraded runs must miss a cache warmed by healthy runs and vice versa:
// two runs, two misses, no cross-serving.
func TestDegradedNeverHitsHealthyCache(t *testing.T) {
	Reset()
	p := testParams()
	healthy := cluster.ConfigA()
	degraded := cluster.ConfigA()
	degraded.Faults = &faults.Schedule{Name: "slow", Effects: []faults.Effect{
		{Kind: faults.SlowDisk, Factor: 3},
	}}

	h := RunIOR(healthy, p)
	d := RunIOR(degraded, p)
	if _, miss, _ := Stats(); miss < 2 {
		t.Fatalf("misses = %d, want 2 (no cross-serving)", miss)
	}
	if h.WriteBW <= d.WriteBW {
		t.Fatalf("healthy %v not faster than slow-disk %v", h.WriteBW, d.WriteBW)
	}

	// Repeats hit their own entries and reproduce the same numbers.
	h2, d2 := RunIOR(healthy, p), RunIOR(degraded, p)
	if hit, _, _ := Stats(); hit < 2 {
		t.Fatalf("hits = %d, want 2", hit)
	}
	if h2.WriteBW != h.WriteBW || d2.WriteBW != d.WriteBW {
		t.Fatal("cached replay returned different bandwidth")
	}
}
