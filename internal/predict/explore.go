package predict

import (
	"cmp"
	"fmt"
	"slices"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/disksim"
	"iophases/internal/netsim"
	"iophases/internal/units"
)

// Variant is one hypothetical configuration in a what-if exploration —
// the design/selection use the paper targets with the SIMCAN simulation
// framework in its future work, available here natively because the
// whole substrate is already a simulator.
type Variant struct {
	Name string
	Spec cluster.Spec
}

// ExploreResult is a variant's estimated application I/O time.
type ExploreResult struct {
	Variant Variant
	Total   units.Duration
	Est     *Estimate
}

// Explore estimates the model's I/O time on every variant and returns the
// results sorted ascending by estimated time (best first). The
// application never runs on any variant — only its phases are replayed,
// so a wide sweep costs seconds. Every variant's replays share one
// fan-out on the sweep pool (EstimateAll; each replay owns a private
// simulation); results are order-preserving and then stably sorted, so
// the ranking is identical at any -j.
func Explore(m *core.Model, variants []Variant) ([]ExploreResult, error) {
	return ExploreOpts(m, variants, EstimateOptions{})
}

// ExploreOpts is Explore with explicit estimation options (fast-path mode,
// faithful mixed-phase characterization).
func ExploreOpts(m *core.Model, variants []Variant, opts EstimateOptions) ([]ExploreResult, error) {
	specs := make([]cluster.Spec, len(variants))
	for i, v := range variants {
		specs[i] = v.Spec
	}
	ests, failed, err := EstimateAll(m, specs, opts)
	if err != nil {
		return nil, fmt.Errorf("variant %s: %w", variants[failed].Name, err)
	}
	// Rank the indices, not the results: an ExploreResult holds a whole
	// cluster.Spec, so each result is written once, in ranked order.
	order := make([]int, len(ests))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ests[a].TotalCH, ests[b].TotalCH) })
	out := make([]ExploreResult, len(ests))
	for k, i := range order {
		out[k] = ExploreResult{Variant: variants[i], Total: ests[i].TotalCH, Est: ests[i]}
	}
	return out, nil
}

// StandardVariants derives a systematic what-if sweep from a base
// configuration: I/O-node counts, network generations, and device
// organizations — the questions §I of the paper opens with ("When is it
// convenient to use a parallel or distributed file system? … RAID or
// single disks?").
func StandardVariants(base cluster.Spec) []Variant {
	var out []Variant
	add := func(name string, mutate func(s *cluster.Spec)) {
		s := base
		s.Name = fmt.Sprintf("%s+%s", base.Name, name)
		mutate(&s)
		out = append(out, Variant{Name: name, Spec: s})
	}
	add("baseline", func(s *cluster.Spec) {})
	// Network generations.
	add("10GbE", func(s *cluster.Spec) { s.Net = netsim.Ethernet10G() })
	add("IB20G", func(s *cluster.Spec) { s.Net = netsim.Infiniband20G() })
	// I/O node scaling (striped filesystem over n servers).
	for _, n := range []int{2, 4, 8} {
		n := n
		add(fmt.Sprintf("%d-ion-striped", n), func(s *cluster.Spec) {
			s.Storage.Kind = "pvfs2"
			s.Storage.IONodes = n
			s.Storage.FileStripeCount = 0
		})
	}
	// Device organization.
	add("raid0", func(s *cluster.Spec) {
		if s.Storage.RAID != nil {
			r := *s.Storage.RAID
			r.Level = disksim.RAID0
			s.Storage.RAID = &r
		}
	})
	add("single-disk", func(s *cluster.Spec) {
		s.Storage.RAID = nil
		s.Storage.DisksPerNode = 1
	})
	return out
}
