package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/obs"
)

// FuzzQuery sends arbitrary bodies to the query endpoint the input's
// first byte picks, through the real handler of a server holding the
// shared test model and one configuration, so every valid query stays
// cheap. Seeds live under testdata/fuzz/FuzzQuery. Whatever the body, the
// server must answer without a 5xx or a recovered panic, reject a body
// that is not JSON with 400, and answer the same input twice with the
// same status and bytes.
func FuzzQuery(f *testing.F) {
	s, err := New(Options{
		Corpus:   map[string]*core.Model{"madbench2": testModel(f)},
		Zoo:      []cluster.Spec{cluster.ConfigA()},
		FastPath: "off",
	})
	if err != nil {
		f.Fatal(err)
	}
	s.SetReady(true)
	h := s.Handler()
	paths := [...]string{"/v1/predict", "/v1/explore", "/v1/compare-degraded"}
	panics := obs.Default().Counter("serve/panics")
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		do := func() (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}
		before := panics.Value()
		status, out := do()
		if status >= 500 {
			t.Fatalf("%s %q: status %d: %s", path, body, status, out)
		}
		if !json.Valid(body) && status != http.StatusBadRequest {
			t.Fatalf("%s %q: invalid JSON got status %d, want 400: %s", path, body, status, out)
		}
		again, out2 := do()
		if again != status || !bytes.Equal(out, out2) {
			t.Fatalf("%s %q: repeat gave %d %s, first %d %s", path, body, again, out2, status, out)
		}
		if got := panics.Value(); got != before {
			t.Fatalf("%s %q: serve/panics %d -> %d", path, body, before, got)
		}
	})
}
