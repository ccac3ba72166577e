package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"iophases/internal/apps/madbench"
	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/mpi"
	"iophases/internal/mpiio"
	"iophases/internal/obs"
	"iophases/internal/runner"
	"iophases/internal/simcache"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

// testModel characterizes a small MADBench2 run once per test binary; the
// corpus model is immutable, so sharing it across tests is safe.
var (
	testModelOnce sync.Once
	testModelVal  *core.Model
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	testModelOnce.Do(func() {
		params := madbench.Default()
		params.RS = 4 * units.MiB
		res := runner.Run(cluster.ConfigA(), 4, "madbench2", func(sys *mpiio.System) func(*mpi.Rank) {
			return madbench.Program(sys, params)
		}, runner.Options{Trace: true})
		testModelVal = core.Build(res.Set)
	})
	return testModelVal
}

// newTestServer builds a ready server over the shared test model with the
// full preset zoo, logging into the returned buffer.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	logBuf := &bytes.Buffer{}
	s, err := New(Options{
		Corpus:    map[string]*core.Model{"madbench2": testModel(t)},
		AccessLog: logBuf,
		FastPath:  "off",
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, logBuf
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestPredictEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/predict",
		`{"model":"madbench2","configs":["configA"],"phases":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("missing X-Request-Id header")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if pr.Best != "configA" || len(pr.Choices) != 1 {
		t.Fatalf("response %+v", pr)
	}
	ch := pr.Choices[0]
	if ch.TimeIOS <= 0 || ch.IORRuns <= 0 || len(ch.Phases) == 0 {
		t.Fatalf("choice %+v", ch)
	}
}

func TestPredictDefaultsToHostableZoo(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"model":"madbench2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Choices) != len(cluster.Presets()) {
		t.Fatalf("choices %d, want one per hostable preset (%d)",
			len(pr.Choices), len(cluster.Presets()))
	}
	if pr.Best == "" {
		t.Fatal("no best configuration")
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/predict", `{"model":"nope"}`, http.StatusNotFound},
		{"/v1/predict", `{"model":"madbench2","configs":["nope"]}`, http.StatusNotFound},
		{"/v1/predict", `{not json`, http.StatusBadRequest},
		{"/v1/predict", `{"model":"madbench2","typo_field":1}`, http.StatusBadRequest},
		{"/v1/predict", `{"model":"madbench2"} trailing`, http.StatusBadRequest},
		{"/v1/predict", `{"model":"madbench2","configs":["configA"]}}`, http.StatusBadRequest},
		{"/v1/predict", `{"model":"madbench2","configs":["configA"]}]]]garbage`, http.StatusBadRequest},
		{"/v1/explore", `{"model":"madbench2","base":"nope"}`, http.StatusNotFound},
		{"/v1/compare-degraded", `{"model":"madbench2","config":"configA","scenario":"nope"}`, http.StatusNotFound},
		{"/v1/compare-degraded", `{"model":"madbench2","config":"configA","scenario":"slow-disk","peak_rs_mib":9999}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d want %d (%s)", tc.path, tc.body, resp.StatusCode, tc.status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q", tc.path, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/predict status %d", resp.StatusCode)
	}
}

// TestConcurrentPredictByteStability pins the house invariant end to end:
// N concurrent identical queries return byte-identical bodies and cost
// exactly as many underlying simulations as a single query.
func TestConcurrentPredictByteStability(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const body = `{"model":"madbench2","configs":["configA","configB"]}`

	// Reference: one query on a cold cache, counting its simulation misses.
	simcache.Reset()
	_, refBody := postJSON(t, ts.URL+"/v1/predict", body)
	_, m1, _ := simcache.Stats()

	// Burst: a fresh cold cache and a fresh flight map (new server), N
	// goroutines released together.
	simcache.Reset()
	_, ts2, _ := newTestServer(t)
	const n = 32
	start := make(chan struct{})
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, b := postJSON(t, ts2.URL+"/v1/predict", body)
			bodies[i] = b
		}(i)
	}
	close(start)
	wg.Wait()
	_, m2, _ := simcache.Stats()

	for i, b := range bodies {
		if !bytes.Equal(b, refBody) {
			t.Fatalf("response %d diverged:\n%s\nwant:\n%s", i, b, refBody)
		}
	}
	if m2 != m1 {
		t.Fatalf("burst of %d identical queries cost %d simulation misses, single query cost %d", n, m2, m1)
	}
}

// TestSequentialRepeatIsWarmHit checks that repeating a query is logged as
// a cache hit with a byte-identical body.
func TestSequentialRepeatIsWarmHit(t *testing.T) {
	_, ts, logBuf := newTestServer(t)
	const body = `{"model":"madbench2","configs":["configB"]}`
	_, b1 := postJSON(t, ts.URL+"/v1/predict", body)
	_, b2 := postJSON(t, ts.URL+"/v1/predict", body)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("repeat diverged:\n%s\nvs\n%s", b1, b2)
	}
	lines := parseAccessLog(t, logBuf)
	if len(lines) != 2 {
		t.Fatalf("access log lines %d, want 2", len(lines))
	}
	if lines[0].Cache != "miss" || lines[1].Cache != "hit" {
		t.Fatalf("cache attribution %q then %q, want miss then hit", lines[0].Cache, lines[1].Cache)
	}
}

// TestCanonicalizationSharesFingerprint: whitespace, field order and
// explicit-vs-default knobs must not split the fingerprint.
func TestCanonicalizationSharesFingerprint(t *testing.T) {
	_, ts, logBuf := newTestServer(t)
	for _, body := range []string{
		`{"model":"madbench2","configs":["configA"]}`,
		`{ "configs" : ["configA"], "model" : "madbench2", "phases": false }`,
	} {
		postJSON(t, ts.URL+"/v1/predict", body)
	}
	lines := parseAccessLog(t, logBuf)
	if len(lines) != 2 || lines[0].FP == "" || lines[0].FP != lines[1].FP {
		t.Fatalf("fingerprints %+v, want two identical", lines)
	}
	if lines[1].Cache != "hit" {
		t.Fatalf("reordered body logged as %q, want hit", lines[1].Cache)
	}
}

func parseAccessLog(t *testing.T, buf *bytes.Buffer) []AccessEntry {
	t.Helper()
	var out []AccessEntry
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var e AccessEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

func TestAccessLogFields(t *testing.T) {
	_, ts, logBuf := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/predict", `{"model":"madbench2","configs":["configA"]}`)
	lines := parseAccessLog(t, logBuf)
	if len(lines) != 1 {
		t.Fatalf("lines %d", len(lines))
	}
	e := lines[0]
	if e.ID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("log id %q, header %q", e.ID, resp.Header.Get("X-Request-Id"))
	}
	if e.Method != "POST" || e.Path != "/v1/predict" || e.Status != 200 ||
		e.Bytes <= 0 || e.DurUS < 0 || len(e.FP) != 16 || e.Fastpath != "off" ||
		e.TS == "" || e.Cache == "" {
		t.Fatalf("entry %+v", e)
	}
}

func TestExploreEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/explore", `{"model":"madbench2","base":"configA"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Best == "" || len(er.Results) < 5 {
		t.Fatalf("explore %+v", er)
	}
	for i, row := range er.Results {
		if row.Rank != i+1 || row.TimeIOS <= 0 {
			t.Fatalf("row %d: %+v", i, row)
		}
		if i > 0 && row.TimeIOS < er.Results[i-1].TimeIOS {
			t.Fatalf("results not sorted at %d", i)
		}
	}
}

func TestCompareDegradedEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/compare-degraded",
		`{"model":"madbench2","config":"configA","scenario":"slow-disk"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CompareDegradedResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Slowdown < 1 || cr.HealthyS <= 0 || cr.DegradedS < cr.HealthyS || len(cr.Phases) == 0 {
		t.Fatalf("comparison %+v", cr)
	}
}

func TestMetaEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var mr ModelsResponse
	getJSON(t, ts.URL+"/v1/models", &mr)
	if len(mr.Models) != 1 || mr.Models[0].Name != "madbench2" || mr.Models[0].NPhases == 0 {
		t.Fatalf("models %+v", mr)
	}
	var cr ConfigsResponse
	getJSON(t, ts.URL+"/v1/configs", &cr)
	if len(cr.Configs) != len(cluster.Presets()) {
		t.Fatalf("configs %+v", cr)
	}
	var sr ScenariosResponse
	getJSON(t, ts.URL+"/v1/scenarios", &sr)
	if len(sr.Scenarios) == 0 {
		t.Fatalf("scenarios %+v", sr)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts, _ := newTestServer(t)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz %d", got)
	}
	s.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while warming %d", got)
	}
	s.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz when ready %d", got)
	}
}

func TestWarmMarksReadyAndPrefills(t *testing.T) {
	logBuf := &bytes.Buffer{}
	s, err := New(Options{
		Corpus:    map[string]*core.Model{"madbench2": testModel(t)},
		Zoo:       []cluster.Spec{cluster.ConfigA()},
		AccessLog: logBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.ready.Load() {
		t.Fatal("ready before warmup")
	}
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	if !s.ready.Load() {
		t.Fatal("not ready after warmup")
	}
	// A post-warm query must be all cache hits: no new misses.
	_, preMiss, _ := simcache.Stats()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"model":"madbench2","configs":["configA"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_, postMiss, _ := simcache.Stats()
	if postMiss != preMiss {
		t.Fatalf("post-warm query cost %d misses", postMiss-preMiss)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/predict", `{"model":"madbench2","configs":["configA"]}`)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"# TYPE serve_req_predict counter",
		"# TYPE serve_latency_us_predict histogram",
		"serve_latency_us_predict_bucket{le=\"+Inf\"}",
		"# TYPE serve_inflight gauge",
		"# TYPE simcache_hits counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRequestMetricsAdvance(t *testing.T) {
	reg := obs.Default()
	before := reg.Counter("serve/req_predict").Value()
	_, ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/v1/predict", `{"model":"madbench2","configs":["configA"]}`)
	if got := reg.Counter("serve/req_predict").Value(); got != before+1 {
		t.Fatalf("serve/req_predict %d -> %d", before, got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("empty corpus accepted")
	}
	if _, err := New(Options{Corpus: map[string]*core.Model{"": testModel(t)}}); err == nil {
		t.Fatal("empty model name accepted")
	}
	a := cluster.ConfigA()
	if _, err := New(Options{
		Corpus: map[string]*core.Model{"m": testModel(t)},
		Zoo:    []cluster.Spec{a, a},
	}); err == nil {
		t.Fatal("duplicate zoo configuration accepted")
	}
}

// TestPanicBecomes500 checks the recover path: a poisoned computation must
// yield a 500 and a panic counter tick, not a dead server.
func TestPanicBecomes500(t *testing.T) {
	s, _, _ := newTestServer(t)
	before := obs.Default().Counter("serve/panics").Value()
	entry := AccessEntry{}
	res := s.safeCompute(func() flightResult { panic("poisoned query") }, &entry)
	if res.status != http.StatusInternalServerError {
		t.Fatalf("status %d", res.status)
	}
	if got := obs.Default().Counter("serve/panics").Value(); got != before+1 {
		t.Fatalf("panic counter %d -> %d", before, got)
	}
	if !strings.Contains(entry.Err, "poisoned query") {
		t.Fatalf("entry err %q", entry.Err)
	}
	if strings.Contains(string(res.body), "poisoned") {
		t.Fatal("panic value leaked into response body")
	}
	var er ErrorResponse
	if err := json.Unmarshal(res.body, &er); err != nil {
		t.Fatal(err)
	}
}

// TestFaithfulNegativeOffsetIs422: a corpus model whose mixed phase
// reaches a negative offset is answered with 422 on a faithful predict,
// before anything is simulated, not with the 500 that safeCompute makes
// of the panic the phase replay would raise.
func TestFaithfulNegativeOffsetIs422(t *testing.T) {
	good := testModel(t)
	neg := *good
	neg.Phases = append([]*core.PhaseModel(nil), good.Phases...)
	for i, pm := range neg.Phases {
		if len(pm.Ops) > 1 {
			bad := *pm
			bad.OffsetC = -1 << 30
			neg.Phases[i] = &bad
		}
	}
	s, err := New(Options{
		Corpus: map[string]*core.Model{"neg": &neg},
		Zoo:    []cluster.Spec{cluster.ConfigA()},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := obs.Default().Counter("serve/panics").Value()
	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"model":"neg","configs":["configA"],"faithful":true}`)
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(body), "negative offset") {
		t.Fatalf("status %d: %s; want 422 naming the negative offset", resp.StatusCode, body)
	}
	if got := obs.Default().Counter("serve/panics").Value(); got != before {
		t.Fatalf("serve/panics %d -> %d", before, got)
	}
}

// TestResponseBodiesCarryNoRequestState: the same query via different
// requests must not embed ids or timestamps — probed by diffing bodies
// (covered above) and by checking the id only appears in the header.
func TestRequestIDOnlyInHeader(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/predict", `{"model":"madbench2","configs":["configA"]}`)
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no request id")
	}
	if bytes.Contains(body, []byte(id)) {
		t.Fatalf("request id %s leaked into body", id)
	}
}

// TestPredictReportsFirstFailingConfig: a predict over several
// configurations, some too small for the model and some whose faithful
// replay fails, answers with the first failing configuration's error in
// request order, the same at any sweep width.
func TestPredictReportsFirstFailingConfig(t *testing.T) {
	good := testModel(t)
	neg := *good
	neg.Phases = append([]*core.PhaseModel(nil), good.Phases...)
	for i, pm := range neg.Phases {
		if len(pm.Ops) > 1 {
			bad := *pm
			bad.OffsetC = -1 << 30
			neg.Phases[i] = &bad
		}
	}
	tiny := func(name string) cluster.Spec {
		s := cluster.ConfigA()
		s.Name = name
		s.ComputeNodes, s.CoresPerNode = 1, 1
		return s
	}
	const negOffset = `{"error":"replay: madbench2 phase 3: slot 0 of rank 0, repetition 0, starts at negative offset -1073741824"}`
	cases := []struct{ body, want string }{
		{`{"model":"neg","configs":["configC","configA"],"faithful":true}`, negOffset},
		{`{"model":"good","configs":["configA","tiny1","tiny2"]}`, `{"error":"model needs 4 processes; tiny1 holds 1"}`},
		{`{"model":"neg","configs":["configA","tiny2","tiny1"],"faithful":true}`, `{"error":"model needs 4 processes; tiny2 holds 1"}`},
	}
	for _, j := range []int{1, 4} {
		func() {
			defer sweep.SetConcurrency(0)
			sweep.SetConcurrency(j)
			simcache.Reset()
			s, err := New(Options{
				Corpus: map[string]*core.Model{"good": good, "neg": &neg},
				Zoo:    []cluster.Spec{cluster.ConfigA(), cluster.ConfigC(), tiny("tiny1"), tiny("tiny2")},
			})
			if err != nil {
				t.Fatal(err)
			}
			s.SetReady(true)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for i, tc := range cases {
				resp, body := postJSON(t, ts.URL+"/v1/predict", tc.body)
				if got := strings.TrimSpace(string(body)); resp.StatusCode != http.StatusUnprocessableEntity || got != tc.want {
					t.Errorf("-j %d case %d: status %d body %s\nwant 422 %s", j, i, resp.StatusCode, got, tc.want)
				}
			}
		}()
	}
}
