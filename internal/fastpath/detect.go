package fastpath

import (
	"iophases/internal/cluster"
	"iophases/internal/disksim"
	"iophases/internal/fsim"
	"iophases/internal/ior"
)

// admissionVersion tags the static decision rule in DecisionTag. Bump it
// whenever the admissibility predicate changes, so a caller comparing
// tags notices the revision.
const admissionVersion = "v1"

// specReason reports why a cluster spec is statically inadmissible, or ""
// when a single-rank workload on it is contention-free. The build-validity
// checks mirror the panics of cluster.Build and the device constructors: a
// spec the DES would refuse to build must bail so the fall-back path
// preserves the panic-on-bad-input behavior.
func specReason(spec *cluster.Spec) string {
	if spec.Faults != nil {
		return "faults"
	}
	st := &spec.Storage
	switch {
	case spec.ComputeNodes <= 0 || spec.CoresPerNode <= 0,
		st.IONodes <= 0 || st.DisksPerNode <= 0,
		st.Disk.SeqReadBW <= 0 || st.Disk.SeqWriteBW <= 0,
		st.FSStripe <= 0,
		spec.Net.Bandwidth <= 0:
		return "badspec"
	}
	if r := st.RAID; r != nil {
		if r.StripeUnit <= 0 || st.DisksPerNode < 2 ||
			(r.Level == disksim.RAID5 && st.DisksPerNode < 3) {
			return "badspec"
		}
	}
	if c := st.Cache; c != nil {
		if c.Capacity <= 0 || c.MemBW <= 0 || c.Chunk <= 0 {
			return "badspec"
		}
	}
	// Every file must live wholly on one target: with more, extents split
	// across servers and the per-target transfers genuinely overlap (and
	// contend on the client NIC), which only the DES prices.
	if fsim.EffectiveStripeCount(st.FileStripeCount, st.IONodes) != 1 {
		return "stripe"
	}
	return ""
}

// admitIOR reports why an IOR run is statically inadmissible, or "".
func admitIOR(spec *cluster.Spec, p ior.Params) string {
	if r := specReason(spec); r != "" {
		return r
	}
	if p.TraceRun {
		return "trace"
	}
	if p.Validate() != nil {
		return "invalid"
	}
	if p.NP != 1 {
		return "np"
	}
	if p.Collective {
		return "collective"
	}
	return ""
}

// DecisionTag is the pure, mode-independent summary of the static
// admission decision for an IOR run: "v1:ok" when admissible, "v1:<reason>"
// otherwise.
func DecisionTag(spec cluster.Spec, p ior.Params) string {
	if r := admitIOR(&spec, p); r != "" {
		return admissionVersion + ":" + r
	}
	return admissionVersion + ":ok"
}
