package simcache

// The runtime guard on the cache key: mutate one reachable field at a
// time with testing/quick-generated values and watch the fingerprint.
// Numbers are also moved by the smallest step (+1, or the next float up),
// which catches a key that rounds a field rather than drops it. Every
// fingerprint encodes its whole input value, so every mutation must
// re-key the cache. A mutation that leaves the key unchanged names a field
// the key dropped or rounded, which would serve one input's cached result
// for another.

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iophases/internal/cluster"
	"iophases/internal/coexec"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/ior"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// mutation is one planned single-field edit: navigate steps from the root,
// then apply the kind-specific change.
type mutation struct {
	path  string
	steps []step
	kind  int // mutLeaf | mutStep | mutAllocate | mutAppend
}

const (
	mutLeaf     = iota // replace a scalar with a quick-generated value
	mutStep            // integer +1, float to the next value toward +Inf
	mutAllocate        // nil pointer -> pointer to zero value
	mutAppend          // slice gains one zero element
)

type step struct {
	kind byte // 'f' struct field, 'i' slice index, 'p' pointer deref
	idx  int
}

func navigate(v reflect.Value, steps []step) reflect.Value {
	for _, s := range steps {
		switch s.kind {
		case 'f':
			v = v.Field(s.idx)
		case 'i':
			v = v.Index(s.idx)
		default:
			v = v.Elem()
		}
	}
	return v
}

// planMutations walks v and emits one mutation per reachable exported
// field: scalars get a value swap, numbers also a smallest step, nil
// pointers get allocated, empty slices get an element, populated slices
// recurse into element 0.
func planMutations(v reflect.Value, path string, steps []step, out *[]mutation) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			planMutations(v.Field(i), path+"."+f.Name, append(append([]step{}, steps...), step{'f', i}), out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			*out = append(*out, mutation{path: path, steps: steps, kind: mutAllocate})
			return
		}
		planMutations(v.Elem(), path, append(append([]step{}, steps...), step{'p', 0}), out)
	case reflect.Slice:
		if v.Len() == 0 {
			*out = append(*out, mutation{path: path + "[+]", steps: steps, kind: mutAppend})
			return
		}
		planMutations(v.Index(0), path+"[0]", append(append([]step{}, steps...), step{'i', 0}), out)
	default:
		*out = append(*out, mutation{path: path, steps: steps, kind: mutLeaf})
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			*out = append(*out, mutation{path: path + "+1", steps: steps, kind: mutStep})
		case reflect.Float32, reflect.Float64:
			*out = append(*out, mutation{path: path + "+ulp", steps: steps, kind: mutStep})
		}
	}
}

// apply performs the mutation on an addressable deep copy of the root.
func (m mutation) apply(t *testing.T, rng *rand.Rand, root reflect.Value) {
	t.Helper()
	v := navigate(root, m.steps)
	switch m.kind {
	case mutAllocate:
		v.Set(reflect.New(v.Type().Elem()))
	case mutAppend:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case mutStep:
		switch {
		case v.CanInt():
			v.SetInt(v.Int() + 1)
		case v.CanUint():
			v.SetUint(v.Uint() + 1)
		case v.Kind() == reflect.Float32:
			v.SetFloat(float64(math.Nextafter32(float32(v.Float()), float32(math.Inf(1)))))
		default:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		}
	default:
		old := v.Interface()
		for tries := 0; ; tries++ {
			if tries > 1000 {
				t.Fatalf("%s: no distinct quick value for %s after %d tries", m.path, v.Type(), tries)
			}
			nv, ok := quick.Value(v.Type(), rng)
			if !ok {
				t.Fatalf("%s: testing/quick cannot generate %s", m.path, v.Type())
			}
			if !reflect.DeepEqual(nv.Interface(), old) {
				v.Set(nv)
				return
			}
		}
	}
}

// deepCopy clones v so a mutation never leaks into the shared base value.
func deepCopy(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	copyInto(out, v)
	return out
}

func copyInto(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Pointer:
		if src.IsNil() {
			return
		}
		p := reflect.New(src.Type().Elem())
		copyInto(p.Elem(), src.Elem())
		dst.Set(p)
	case reflect.Slice:
		if src.IsNil() {
			return
		}
		s := reflect.MakeSlice(src.Type(), src.Len(), src.Len())
		dst.Set(s)
		for i := 0; i < src.Len(); i++ {
			copyInto(dst.Index(i), src.Index(i))
		}
	case reflect.Struct:
		dst.Set(src) // shallow first, then deep-fix the reference fields
		for i := 0; i < src.NumField(); i++ {
			if !src.Type().Field(i).IsExported() {
				continue
			}
			switch src.Field(i).Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Struct:
				copyInto(dst.Field(i), src.Field(i))
			}
		}
	default:
		dst.Set(src)
	}
}

// checkMutations applies each planned mutation to a deep copy of base and
// returns the paths whose mutation left the fingerprint unchanged.
func checkMutations(t *testing.T, rng *rand.Rand, base reflect.Value, muts []mutation, fingerprint func(reflect.Value) string) (missed []string) {
	t.Helper()
	fp0 := fingerprint(base)
	for _, m := range muts {
		cp := deepCopy(base)
		m.apply(t, rng, cp)
		if fingerprint(cp) == fp0 {
			missed = append(missed, m.path)
		}
	}
	return missed
}

// specMutations plans one mutation per reachable field of spec.
func specMutations(t *testing.T, spec cluster.Spec) []mutation {
	t.Helper()
	var muts []mutation
	planMutations(reflect.ValueOf(spec), "Spec", nil, &muts)
	if len(muts) < 15 {
		t.Fatalf("walker planned only %d spec mutations; the walk is not reaching the tree", len(muts))
	}
	return muts
}

// checkSpec runs the spec mutations under fingerprint.
func checkSpec(t *testing.T, rng *rand.Rand, spec cluster.Spec, muts []mutation, fingerprint func(cluster.Spec) string) []string {
	t.Helper()
	return checkMutations(t, rng, reflect.ValueOf(spec), muts, func(v reflect.Value) string {
		return fingerprint(v.Interface().(cluster.Spec))
	})
}

// richSpec is ConfigA with a fault schedule, so the walker reaches the
// fields inside every pointer target — Storage.RAID, Storage.Cache and
// Faults — rather than only Faults' nil->non-nil transition (covered by
// the plain ConfigA).
func richSpec() cluster.Spec {
	s := cluster.ConfigA()
	s.Faults = &faults.Schedule{
		Name: "degraded", Seed: 7,
		Effects: []faults.Effect{{Kind: faults.Kind("slow-disk"), Match: "ion", FromSec: 1, ForSec: 2, Factor: 3}},
	}
	return s
}

// TestFingerprintCoversClusterSpec mutates every reachable field of
// cluster.Spec — ConfigA as-is (nil Faults, so its allocation is a
// mutation) and the enriched variant (so its interior is walked too) —
// and of ior.Params, asserting that each mutation re-keys.
func TestFingerprintCoversClusterSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	p := testParams()
	for _, spec := range []cluster.Spec{cluster.ConfigA(), richSpec()} {
		missed := checkSpec(t, rng, spec, specMutations(t, spec), func(s cluster.Spec) string { return Fingerprint(s, p) })
		for _, path := range missed {
			t.Errorf("%s: mutating this field did not change the fingerprint — a stale cache entry would be served for the new configuration", path)
		}
	}

	var pMuts []mutation
	base := reflect.ValueOf(testParams())
	planMutations(base, "Params", nil, &pMuts)
	spec := cluster.ConfigA()
	missed := checkMutations(t, rng, base, pMuts, func(v reflect.Value) string {
		return Fingerprint(spec, v.Interface().(ior.Params))
	})
	for _, path := range missed {
		t.Errorf("%s: mutating this field did not change the fingerprint", path)
	}
}

// peakSizes holds PeakBandwidth's two sweep sizes, so the walker plans
// their mutations as it does any other field's.
type peakSizes struct{ FileSize, RequestSize int64 }

// TestPeakKeyCoversSpecAndSizes runs the same spec mutations through the
// key of the memoized device peak (BW_PK), then mutates its sweep sizes.
func TestPeakKeyCoversSpecAndSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	sizes := peakSizes{64 * units.MiB, units.MiB}
	for _, spec := range []cluster.Spec{cluster.ConfigA(), richSpec()} {
		missed := checkSpec(t, rng, spec, specMutations(t, spec), func(s cluster.Spec) string {
			return peakKey(s, sizes.FileSize, sizes.RequestSize)
		})
		for _, path := range missed {
			t.Errorf("%s: mutating this field did not change the peak key", path)
		}
	}

	var sMuts []mutation
	base := reflect.ValueOf(sizes)
	planMutations(base, "Peak", nil, &sMuts)
	spec := cluster.ConfigA()
	missed := checkMutations(t, rng, base, sMuts, func(v reflect.Value) string {
		s := v.Interface().(peakSizes)
		return peakKey(spec, s.FileSize, s.RequestSize)
	})
	for _, path := range missed {
		t.Errorf("%s: mutating this size did not change the peak key", path)
	}
}

// TestWalkerCatchesDroppedField checks the walker itself: under a
// fingerprint that drops Spec.Faults, it must report every Faults
// mutation and nothing else. A walker that stopped noticing a dropped
// field would let the tests above pass over a key that serves stale hits.
func TestWalkerCatchesDroppedField(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	p := testParams()
	noFaults := func(s cluster.Spec) string {
		s.Faults = nil
		return Fingerprint(s, p)
	}
	for i, spec := range []cluster.Spec{cluster.ConfigA(), richSpec()} {
		muts := specMutations(t, spec)
		var want []string
		for _, m := range muts {
			if strings.HasPrefix(m.path, "Spec.Faults") {
				want = append(want, m.path)
			}
		}
		if len(want) == 0 {
			t.Fatalf("spec %d: walker planned no Spec.Faults mutation", i)
		}
		if got := checkSpec(t, rng, spec, muts, noFaults); !reflect.DeepEqual(got, want) {
			t.Errorf("spec %d: walker reported %v under a fingerprint that drops Spec.Faults, want %v", i, got, want)
		}
	}
}

func coexecBase() coexec.Spec {
	return coexec.Spec{
		Config: cluster.ConfigA(),
		Apps: []coexec.App{{
			Name:      "bt",
			OffsetSec: 1.5,
			Model: &core.Model{
				App: "bt", SourceConfig: "configA", NP: 1,
				Files: []trace.FileMeta{{ID: 0, Name: "btio.out", AccessType: "shared"}},
				Phases: []*core.PhaseModel{{
					ID: 1, File: 0,
					Ops: []core.OpModel{{Op: trace.Op("write_at"), Size: units.MiB, Disp: units.MiB}},
					Rep: 3, NP: 1, Weight: units.MiB, Tick: 1,
					OffsetC: 4096, OffsetOK: true, OffsetExpr: "c",
					MeasuredSec: 0.25, StartSec: 1.0,
				}},
				AccessMode: "sequential", AccessType: "shared", PointerSet: "explicit",
			},
		}},
	}
}

// TestFingerprintCoexecCoversEveryPhysicalField is the co-execution twin:
// every reachable field of the spec — the shared cluster, each app's name
// and offset, and every Model field down to the measured timing that
// schedules phase starts — must re-key.
func TestFingerprintCoexecCoversEveryPhysicalField(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	base := coexecBase()
	var muts []mutation
	planMutations(reflect.ValueOf(base), "Coexec", nil, &muts)
	if len(muts) < 30 {
		t.Fatalf("walker planned only %d coexec mutations; the walk is not reaching the model tree", len(muts))
	}
	var phaseSeen bool
	for _, m := range muts {
		phaseSeen = phaseSeen || m.path == "Coexec.Apps[0].Model.Phases[0].MeasuredSec"
	}
	if !phaseSeen {
		t.Fatalf("plan does not reach the phase timing:\n%+v", muts)
	}
	missed := checkMutations(t, rng, reflect.ValueOf(base), muts, func(v reflect.Value) string {
		return FingerprintCoexec(v.Interface().(coexec.Spec))
	})
	for _, path := range missed {
		t.Errorf("%s: mutating this field did not change the fingerprint", path)
	}
}
