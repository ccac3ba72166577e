package iophases_test

import (
	"bytes"
	"testing"

	"iophases/internal/core"
	"iophases/internal/ior"
)

// FuzzLoadModel drives model JSON through LoadModel's decode-and-validate
// path: core.Decode, then ior.ValidateModel. No input may panic it. Every
// phase of an accepted model must replay with IOR parameters that
// validate, the per-pass caps included, and must issue at most
// MaxPassTransfers operations in its phase-faithful replay
// (rep·len(ops)·np), so no loaded model can ask a simulation for more
// than it can run. An accepted model must also survive re-encoding:
// Encode's bytes load again and re-encode to the same bytes. The seeds
// under testdata/fuzz/FuzzLoadModel are a saved MADBench2 model, a saved
// BT-IO model, a phase with a 2^62-byte request, a phase just past each
// per-pass cap, a negative weight, a rep of 2^22 with the weight left as
// traced, and a model followed by trailing garbage.
func FuzzLoadModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := loadModel(raw)
		if err != nil {
			return
		}
		for _, pm := range m.Phases {
			if err := ior.FromReplay(pm.Replay(m.AccessType)).Validate(); err != nil {
				t.Fatalf("accepted model: phase %d does not replay: %v", pm.ID, err)
			}
			if int64(pm.Rep) > ior.MaxPassTransfers/int64(len(pm.Ops))/int64(pm.NP) {
				t.Fatalf("accepted model: phase %d's faithful replay issues rep %d × %d ops × np %d, past MaxPassTransfers",
					pm.ID, pm.Rep, len(pm.Ops), pm.NP)
			}
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted model does not encode: %v", err)
		}
		again, err := loadModel(enc)
		if err != nil {
			t.Fatalf("re-encoded model rejected: %v\n%s", err, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("reloaded model does not encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding changed the model:\n%s\nthen\n%s", enc, enc2)
		}
	})
}

// loadModel is LoadModel on bytes.
func loadModel(raw []byte) (*core.Model, error) {
	m, err := core.Decode(raw)
	if err != nil {
		return nil, err
	}
	return m, ior.ValidateModel(m)
}
