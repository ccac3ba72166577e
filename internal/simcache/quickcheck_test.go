package simcache

// The runtime twin of the cachekey analyzer (internal/analysis/cachekey):
// where the analyzer proves statically that every exported field of the
// fingerprinted structs is either read by a Canonical function or marked
// //iovet:cosmetic, the tests here prove it dynamically — mutate one field
// at a time with testing/quick-generated values and watch the fingerprint.
// Physical fields must re-key the cache; cosmetic fields must not.
//
// The walker deliberately does NOT read the package skip maps to decide
// what counts as cosmetic: it carries its own declaration (cosmeticFields
// below) and a separate test pins the skip maps to it. A physical field
// smuggled into specSkip would otherwise make the walker agree with the
// bug it exists to catch (the acceptance canary in canaries/ is exactly
// that edit).

import (
	"math/rand"
	"reflect"
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

// cosmeticFields is this test's own declaration of which fields are
// label-only, keyed by the struct type that owns them. Each of these types
// is encoded at exactly one "binding point" (Canonical's two arguments,
// CanonicalCoexec's Config and *App.Model, the hand-written App loop), so
// owning-type lookup reproduces the skip semantics of encodeValue exactly.
var cosmeticFields = map[reflect.Type]map[string]bool{
	reflect.TypeOf(cluster.Spec{}): {"Name": true, "Description": true},
	reflect.TypeOf(ior.Params{}):   {"FileName": true},
	reflect.TypeOf(core.Model{}):   {"App": true, "SourceConfig": true, "Files": true},
	reflect.TypeOf(coexec.App{}):   {"Name": true},
}

// TestSkipMapsMatchDeclaredCosmetic pins the package skip maps to the
// declaration above. Adding a field to a skip map without updating the
// declaration — the stale-cache bug class — fails here before the walker
// even runs. TraceRun is the one entry with no walker counterpart: traced
// runs bypass the cache before any fingerprint is computed (and the
// admission tag legitimately reads the flag), so its cosmetic claim is
// asserted by TestTraceRunBypassesFingerprinting instead.
func TestSkipMapsMatchDeclaredCosmetic(t *testing.T) {
	wantIOR := map[string]bool{"FileName": true, "TraceRun": true}
	if !reflect.DeepEqual(specSkip, cosmeticFields[reflect.TypeOf(cluster.Spec{})]) {
		t.Errorf("specSkip = %v, want the declared cosmetic set; physical fields must never enter a skip map", specSkip)
	}
	if !reflect.DeepEqual(iorSkip, wantIOR) {
		t.Errorf("iorSkip = %v, want %v", iorSkip, wantIOR)
	}
	if !reflect.DeepEqual(coexecModelSkip, cosmeticFields[reflect.TypeOf(core.Model{})]) {
		t.Errorf("coexecModelSkip = %v, want the declared cosmetic set", coexecModelSkip)
	}
	// Every skip entry must name a real field, so a renamed field cannot
	// silently turn its skip entry into a no-op (the cachekey analyzer's
	// "names no field" diagnostic, enforced at runtime).
	for typ, skip := range map[reflect.Type]map[string]bool{
		reflect.TypeOf(cluster.Spec{}): specSkip,
		reflect.TypeOf(ior.Params{}):   iorSkip,
		reflect.TypeOf(core.Model{}):   coexecModelSkip,
	} {
		for name := range skip {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("skip map for %s names %q, which is not a field", typ, name)
			}
		}
	}
}

// mutation is one planned single-field edit: navigate steps from the root,
// apply the kind-specific change, and expect the fingerprint to move (or
// hold still, for cosmetic fields).
type mutation struct {
	path         string
	steps        []step
	kind         int // mutLeaf | mutAllocate | mutAppend
	expectChange bool
}

const (
	mutLeaf     = iota // replace a scalar with a quick-generated value
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

// planMutations walks v and emits one mutation per reachable field:
// scalars get a value swap, nil pointers get allocated, empty slices get
// an element, populated slices recurse into element 0. A cosmetic field
// is mutated as a whole (no recursion — everything under it is equally
// label-only) with expectChange=false.
func planMutations(v reflect.Value, path string, steps []step, out *[]mutation) {
	wholeField := func(fv reflect.Value, fpath string, fsteps []step, expect bool) {
		m := mutation{path: fpath, steps: fsteps, expectChange: expect}
		switch fv.Kind() {
		case reflect.Slice:
			m.kind = mutAppend
			m.path += "[+]"
		case reflect.Pointer:
			if !fv.IsNil() {
				// Cosmetic pointers do not occur in the fingerprinted
				// structs; only nil allocation is needed here.
				return
			}
			m.kind = mutAllocate
		default:
			m.kind = mutLeaf
		}
		*out = append(*out, m)
	}
	switch v.Kind() {
	case reflect.Struct:
		skip := cosmeticFields[v.Type()]
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			fsteps := append(append([]step{}, steps...), step{'f', i})
			fpath := path + "." + f.Name
			if skip[f.Name] {
				wholeField(v.Field(i), fpath, fsteps, false)
				continue
			}
			planMutations(v.Field(i), fpath, fsteps, out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			*out = append(*out, mutation{path: path, steps: steps, kind: mutAllocate, expectChange: true})
			return
		}
		planMutations(v.Elem(), path, append(append([]step{}, steps...), step{'p', 0}), out)
	case reflect.Slice:
		if v.Len() == 0 {
			*out = append(*out, mutation{path: path + "[+]", steps: steps, kind: mutAppend, expectChange: true})
			return
		}
		planMutations(v.Index(0), path+"[0]", append(append([]step{}, steps...), step{'i', 0}), out)
	default:
		*out = append(*out, mutation{path: path, steps: steps, kind: mutLeaf, expectChange: true})
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

// checkMutations runs every planned mutation against fingerprint and
// asserts the expected sensitivity.
func checkMutations(t *testing.T, rng *rand.Rand, base reflect.Value, muts []mutation, fingerprint func(reflect.Value) string) {
	t.Helper()
	fp0 := fingerprint(base)
	for _, m := range muts {
		cp := deepCopy(base)
		m.apply(t, rng, cp)
		got := fingerprint(cp)
		if m.expectChange && got == fp0 {
			t.Errorf("%s: mutating this physical field did not change the fingerprint — a stale cache entry would be served for the new configuration", m.path)
		}
		if !m.expectChange && got != fp0 {
			t.Errorf("%s: mutating this cosmetic field changed the fingerprint — renamed-but-identical replays no longer share a cache entry", m.path)
		}
	}
}

// richSpec is ConfigA with the optional subtrees populated, so the walker
// reaches the fields inside LocalDisk and Faults rather than only the
// nil->non-nil transition (covered by TestFingerprintCoversClusterSpec on
// the plain ConfigA).
func richSpec() cluster.Spec {
	s := cluster.ConfigA()
	d := s.Storage.Disk
	s.LocalDisk = &d
	s.Faults = &faults.Schedule{
		Name: "degraded", Seed: 7,
		Effects: []faults.Effect{{Kind: faults.Kind("slow-disk"), Match: "ion", FromSec: 1, ForSec: 2, Factor: 3}},
	}
	return s
}

// TestFingerprintCoversClusterSpec mutates every reachable field of
// cluster.Spec and ior.Params — ConfigA as-is (nil LocalDisk/Faults, so
// their allocation is a mutation) and the enriched variant (so their
// interiors are walked too) — asserting Fingerprint moves exactly when a
// physical field does.
func TestFingerprintCoversClusterSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	p := testParams()
	for _, spec := range []cluster.Spec{cluster.ConfigA(), richSpec()} {
		var specMuts []mutation
		planMutations(reflect.ValueOf(spec), "Spec", nil, &specMuts)
		if len(specMuts) < 15 {
			t.Fatalf("walker planned only %d spec mutations; the walk is not reaching the tree", len(specMuts))
		}
		checkMutations(t, rng, reflect.ValueOf(spec), specMuts, func(v reflect.Value) string {
			return Fingerprint(v.Interface().(cluster.Spec), p)
		})
	}

	var pMuts []mutation
	// TraceRun is excluded from the walk (see TestTraceRunBypassesFingerprinting).
	base := reflect.ValueOf(testParams())
	planMutations(base, "Params", nil, &pMuts)
	spec := cluster.ConfigA()
	kept := pMuts[:0]
	for _, m := range pMuts {
		if m.path != "Params.TraceRun" {
			kept = append(kept, m)
		}
	}
	checkMutations(t, rng, base, kept, func(v reflect.Value) string {
		return Fingerprint(spec, v.Interface().(ior.Params))
	})
}

// TestTraceRunBypassesFingerprinting pins why TraceRun may sit in iorSkip
// without a walker case: a traced run never reaches the cache lookup, so
// its fingerprint is never computed for keying. The encoded portion of the
// canonical form must still ignore the flag (the skip map's actual claim);
// only the trailing admission tag may read it.
func TestTraceRunBypassesFingerprinting(t *testing.T) {
	spec := cluster.ConfigA()
	p := testParams()
	traced := p
	traced.TraceRun = true
	a, b := Canonical(spec, p), Canonical(spec, traced)
	cut := func(s string) string {
		i := len(s) - len("|fp=")
		for i >= 0 && s[i:i+4] != "|fp=" {
			i--
		}
		if i < 0 {
			t.Fatalf("canonical form lost its |fp= admission tag: %q", s)
		}
		return s[:i]
	}
	if cut(a) != cut(b) {
		t.Errorf("encoded portion of Canonical depends on TraceRun:\n  %s\n  %s", a, b)
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
// the shared cluster (specSkip applies at its binding point), each app's
// offset, and every physical Model field — including the measured timing
// that schedules phase starts — must re-key; App.Name and the Model's
// provenance labels must not.
func TestFingerprintCoexecCoversEveryPhysicalField(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	base := coexecBase()
	var muts []mutation
	planMutations(reflect.ValueOf(base), "Coexec", nil, &muts)
	if len(muts) < 30 {
		t.Fatalf("walker planned only %d coexec mutations; the walk is not reaching the model tree", len(muts))
	}
	var phaseSeen, cosmeticSeen bool
	for _, m := range muts {
		phaseSeen = phaseSeen || m.path == "Coexec.Apps[0].Model.Phases[0].MeasuredSec"
		cosmeticSeen = cosmeticSeen || (m.path == "Coexec.Apps[0].Name" && !m.expectChange)
	}
	if !phaseSeen || !cosmeticSeen {
		t.Fatalf("plan is missing expected cases (phase timing %v, cosmetic app name %v):\n%+v", phaseSeen, cosmeticSeen, muts)
	}
	checkMutations(t, rng, reflect.ValueOf(base), muts, func(v reflect.Value) string {
		return FingerprintCoexec(v.Interface().(coexec.Spec))
	})
}
