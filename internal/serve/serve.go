// Package serve is the HTTP layer of the iod prediction service: a
// stdlib-only JSON API over the paper's analysis stage (predict/replay/
// fastpath) built observability-first. Every request is traced (wall-clock
// span on the process timeline recorder), counted (per-endpoint counters
// and latency histograms on the obs default registry, exported on /metrics
// in Prometheus text exposition), and attributed (a structured JSON access
// log carrying request id, query fingerprint, cache warmth, coalescing and
// latency).
//
// Three invariants shape the design (DESIGN.md §13):
//
//   - Identical queries return byte-identical bodies at any concurrency.
//     Responses are structs rendered by encoding/json (deterministic field
//     order) over deterministic simulation results; nothing wall-clock or
//     per-request (ids, timestamps) ever enters a body.
//
//   - One underlying simulation per concurrent identical burst. Identical
//     in-flight queries coalesce at the HTTP layer (flightGroup) on a
//     canonical fingerprint, and distinct replays below that dedup through
//     the simcache singleflight — so N identical concurrent predicts cost
//     one computation, pinned by TestConcurrentPredictByteStability.
//
//   - The simulation budget is explicit. Leaders pass a bounded admission
//     limiter before touching the sweep pool; the queue depth, inflight
//     count, queue-wait histogram and rejection counter are first-class
//     metrics, so saturation is visible before it becomes an outage.
//
// The package is inside iovet's simulation scope: obspure forbids direct
// stdout/stderr writes (the access log is an injected io.Writer), errdrop
// forbids dropping predict/replay errors, and detwall confines the server's
// real wall clock to the allowlisted seam in clock.go.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"iophases/internal/cluster"
	"iophases/internal/core"
	"iophases/internal/faults"
	"iophases/internal/obs"
	"iophases/internal/predict"
	"iophases/internal/prof"
	"iophases/internal/sweep"
	"iophases/internal/units"
)

// maxBodyBytes bounds a query body; the API's requests are a few hundred
// bytes, so 1 MiB is generous and keeps a misdirected upload harmless.
const maxBodyBytes = 1 << 20

// Options configure a Server.
type Options struct {
	// Corpus maps model names to resident I/O models. Required non-empty.
	Corpus map[string]*core.Model
	// Zoo is the configuration set queries may name; nil selects the four
	// paper presets.
	Zoo []cluster.Spec
	// Inflight is the admission budget: concurrent leader computations.
	// 0 selects 2×GOMAXPROCS (each leader fans out over the sweep pool).
	Inflight int
	// Queue bounds waiting leaders; beyond it requests get 503. 0 selects
	// 1024; negative means no waiting.
	Queue int
	// FastPath labels the process-wide analytic fast-path mode in the
	// access log ("off", "on", "verify"); it does not change the mode —
	// cmd/iod sets that globally before building the server.
	FastPath string
	// AccessLog receives one JSON line per request; nil disables.
	AccessLog io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// endpointMetrics are one API endpoint's first-class counters.
type endpointMetrics struct {
	cReq   *obs.Counter
	hLatUS *obs.Histogram
}

// Server is the resident prediction service: corpus and zoo are immutable
// after New, so request handling takes no server-level locks outside the
// flight group's map access.
type Server struct {
	corpus     map[string]*core.Model
	modelNames []string // sorted
	zoo        []cluster.Spec
	zooByName  map[string]cluster.Spec
	zooNames   []string // zoo order
	scenarios  []string // sorted preset names

	limiter  *Limiter
	flights  *flightGroup
	logger   *accessLogger
	fastpath string
	ready    atomic.Bool
	reqSeq   atomic.Int64
	mux      *http.ServeMux

	em       map[string]*endpointMetrics
	cHTTP    *obs.Counter
	cErrors  *obs.Counter
	cPanics  *obs.Counter
	cWarmEst *obs.Counter
}

// New builds a server over a model corpus. The corpus must be non-empty
// with models able to run somewhere in the zoo; readiness starts false
// until Warm (or SetReady) flips it.
func New(opts Options) (*Server, error) {
	if len(opts.Corpus) == 0 {
		return nil, errors.New("serve: empty model corpus")
	}
	zoo := opts.Zoo
	if zoo == nil {
		zoo = cluster.Presets()
	}
	inflight := opts.Inflight
	if inflight == 0 {
		inflight = 2 * runtime.GOMAXPROCS(0)
	}
	queue := opts.Queue
	if queue == 0 {
		queue = 1024
	}
	reg := obs.Default()
	s := &Server{
		corpus:    opts.Corpus,
		zoo:       zoo,
		zooByName: make(map[string]cluster.Spec, len(zoo)),
		scenarios: faults.PresetNames(),
		limiter:   NewLimiter(inflight, queue, reg),
		flights:   newFlightGroup(reg),
		logger:    newAccessLogger(opts.AccessLog),
		fastpath:  opts.FastPath,
		cHTTP:     reg.Counter("serve/http_requests"),
		cErrors:   reg.Counter("serve/http_errors"),
		cPanics:   reg.Counter("serve/panics"),
		cWarmEst:  reg.Counter("serve/warm_estimates"),
	}
	for name, m := range s.corpus {
		if name == "" || m == nil {
			return nil, fmt.Errorf("serve: corpus entry %q is empty", name)
		}
		s.modelNames = append(s.modelNames, name)
	}
	sort.Strings(s.modelNames)
	for _, spec := range zoo {
		if _, dup := s.zooByName[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate zoo configuration %q", spec.Name)
		}
		s.zooByName[spec.Name] = spec
		s.zooNames = append(s.zooNames, spec.Name)
	}
	s.em = map[string]*endpointMetrics{}
	for _, ep := range []string{"predict", "explore", "compare_degraded", "meta", "metrics", "probe"} {
		s.em[ep] = &endpointMetrics{
			cReq:   reg.Counter("serve/req_" + ep),
			hLatUS: reg.Histogram("serve/latency_us_" + ep),
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", func(w http.ResponseWriter, r *http.Request) {
		s.query(w, r, "predict", s.parsePredict)
	})
	mux.HandleFunc("POST /v1/explore", func(w http.ResponseWriter, r *http.Request) {
		s.query(w, r, "explore", s.parseExplore)
	})
	mux.HandleFunc("POST /v1/compare-degraded", func(w http.ResponseWriter, r *http.Request) {
		s.query(w, r, "compare_degraded", s.parseCompareDegraded)
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		s.static(w, r, "meta", s.modelsResponse())
	})
	mux.HandleFunc("GET /v1/configs", func(w http.ResponseWriter, r *http.Request) {
		s.static(w, r, "meta", ConfigsResponse{Configs: s.zooNames})
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		s.static(w, r, "meta", ScenariosResponse{Scenarios: s.scenarios})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.probe(w, r, http.StatusOK, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.ready.Load() {
			s.probe(w, r, http.StatusOK, "ready\n")
		} else {
			s.probe(w, r, http.StatusServiceUnavailable, "warming\n")
		}
	})
	if opts.EnablePprof {
		mux.Handle("/debug/pprof/", prof.HTTPHandler())
	}
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ModelNames lists the corpus, sorted.
func (s *Server) ModelNames() []string { return s.modelNames }

// SetReady flips the /readyz state directly (tests; servers that skip
// warmup).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Warm prefills the replay cache — one estimate per (model, hostable zoo
// configuration), fanned over the sweep pool — then marks the server
// ready. After Warm, every query over corpus models and zoo presets is
// answered from memoized simulations. Estimation errors are joined and
// returned but do not block readiness: a model that fails to warm still
// fails identically (and cheaply) at query time.
func (s *Server) Warm() error {
	type job struct {
		m    *core.Model
		spec cluster.Spec
	}
	var jobs []job
	for _, name := range s.modelNames {
		m := s.corpus[name]
		for _, spec := range s.zoo {
			if m.NP <= spec.MaxProcs() {
				jobs = append(jobs, job{m, spec})
			}
		}
	}
	errs := sweep.Map(jobs, func(_ int, j job) error {
		_, err := predict.EstimateTime(j.m, j.spec)
		if err == nil {
			s.cWarmEst.Inc()
		}
		return err
	})
	s.ready.Store(true)
	return errors.Join(errs...)
}

// apiError carries an HTTP status alongside the message rendered into the
// ErrorResponse body.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// strictUnmarshal decodes a request body, rejecting unknown fields (typo'd
// knobs must not silently no-op) and trailing data. Only whitespace may
// follow the value: Decoder.More reports false before a stray '}' or ']',
// so the decoder must reach io.EOF instead.
func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// jsonBody renders an API payload as a response body: compact JSON plus a
// trailing newline. Marshal failure is a programming error in the DTOs —
// it degrades to a 500 body rather than a panic.
func jsonBody(status int, payload any) flightResult {
	raw, err := json.Marshal(payload)
	if err != nil {
		return flightResult{
			status: http.StatusInternalServerError,
			body:   []byte(`{"error":"response encoding failed"}` + "\n"),
		}
	}
	return flightResult{status: status, body: append(raw, '\n')}
}

// parsed is a validated query: its canonical form (re-marshaled parsed
// request, so whitespace and field order never split a flight) and the
// computation to run under the admission budget.
type parsed struct {
	canonical []byte
	compute   func() flightResult
}

// query is the shared plumbing of the three POST endpoints: read, parse,
// fingerprint, coalesce, admit, compute, respond — with the request id,
// fingerprint, cache warmth, coalescing, queue wait and latency all
// recorded on the access log, the metrics registry and (when a timeline
// recorder is active) a wall-clock span.
func (s *Server) query(w http.ResponseWriter, r *http.Request, endpoint string, parse func([]byte) (parsed, *apiError)) {
	start := now()
	tl := obs.Timeline()
	tlStart := tl.WallNow()
	id := s.nextID()
	w.Header().Set("X-Request-Id", id)
	entry := AccessEntry{
		ID:       id,
		Method:   r.Method,
		Path:     r.URL.Path,
		Fastpath: s.fastpath,
	}
	s.cHTTP.Inc()

	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.respond(w, endpoint, &entry, start, tl, tlStart,
			jsonBody(http.StatusBadRequest, ErrorResponse{Error: "reading request body: " + err.Error()}))
		return
	}
	p, aerr := parse(raw)
	if aerr != nil {
		s.respond(w, endpoint, &entry, start, tl, tlStart,
			jsonBody(aerr.status, ErrorResponse{Error: aerr.msg}))
		return
	}
	sum := sha256.Sum256(append([]byte(endpoint+"\x00"), p.canonical...))
	entry.FP = hex.EncodeToString(sum[:8])

	var queueUS int64
	res, coalesced, cached, ferr := s.flights.do(r.Context(), string(sum[:]), func() flightResult {
		qt := now()
		if err := s.limiter.Acquire(r.Context()); err != nil {
			if errors.Is(err, ErrSaturated) {
				return jsonBody(http.StatusServiceUnavailable,
					ErrorResponse{Error: "admission queue full; retry"})
			}
			return jsonBody(http.StatusServiceUnavailable,
				ErrorResponse{Error: "canceled while queued: " + err.Error()})
		}
		queueUS = since(qt).Microseconds()
		defer s.limiter.Release()
		return s.safeCompute(p.compute, &entry)
	})
	entry.QueueUS = queueUS
	entry.Coalesced = coalesced
	if cached {
		entry.Cache = "hit"
	} else {
		entry.Cache = "miss"
	}
	if ferr != nil {
		// Follower whose client went away before the leader finished:
		// nothing to write, but the request is still logged and counted
		// (499 is the de-facto "client closed request" status).
		entry.Status = 499
		entry.Err = ferr.Error()
		s.observe(endpoint, &entry, start, tl, tlStart)
		return
	}
	s.respond(w, endpoint, &entry, start, tl, tlStart, res)
}

// safeCompute runs a query computation, converting a panic into a 500 so
// one poisoned query cannot take the daemon down. The panic value goes to
// the access log and a counter, never into the response body.
func (s *Server) safeCompute(fn func() flightResult, entry *AccessEntry) (res flightResult) {
	defer func() {
		if r := recover(); r != nil {
			s.cPanics.Inc()
			entry.Err = fmt.Sprintf("panic: %v", r)
			res = jsonBody(http.StatusInternalServerError, ErrorResponse{Error: "internal error"})
		}
	}()
	return fn()
}

// respond writes the result and records every observation channel.
func (s *Server) respond(w http.ResponseWriter, endpoint string, entry *AccessEntry, start time.Time, tl *obs.Recorder, tlStart int64, res flightResult) {
	w.Header().Set("Content-Type", "application/json")
	if res.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(res.status)
	n, _ := w.Write(res.body)
	entry.Status = res.status
	entry.Bytes = n
	if res.status >= 400 && entry.Err == "" {
		entry.Err = strings.TrimSpace(string(res.body))
	}
	s.observe(endpoint, entry, start, tl, tlStart)
}

// observe stamps latency onto the metrics registry, the access log and the
// timeline span for one finished request.
func (s *Server) observe(endpoint string, entry *AccessEntry, start time.Time, tl *obs.Recorder, tlStart int64) {
	dur := since(start)
	entry.TS = stamp(start)
	entry.DurUS = dur.Microseconds()
	em := s.em[endpoint]
	em.cReq.Inc()
	em.hLatUS.Observe(entry.DurUS)
	if entry.Status >= 400 {
		s.cErrors.Inc()
	}
	s.logger.log(*entry)
	if tl != nil {
		tr := tl.Track("serve", entry.ID)
		tr.Span(endpoint, tlStart, tl.WallNow(),
			obs.Arg{Key: "id", Value: entry.ID},
			obs.Arg{Key: "fp", Value: entry.FP},
			obs.Arg{Key: "status", Value: entry.Status},
			obs.Arg{Key: "cache", Value: entry.Cache},
			obs.Arg{Key: "coalesced", Value: entry.Coalesced})
	}
}

// static serves a fixed JSON payload (corpus/zoo/scenario listings) with
// the same logging and metrics as the query path, minus flights and
// admission.
func (s *Server) static(w http.ResponseWriter, r *http.Request, endpoint string, payload any) {
	start := now()
	tl := obs.Timeline()
	tlStart := tl.WallNow()
	id := s.nextID()
	w.Header().Set("X-Request-Id", id)
	entry := AccessEntry{ID: id, Method: r.Method, Path: r.URL.Path}
	s.cHTTP.Inc()
	s.respond(w, endpoint, &entry, start, tl, tlStart, jsonBody(http.StatusOK, payload))
}

// probe serves the health endpoints: tiny text bodies, still counted and
// logged so probe traffic is visible.
func (s *Server) probe(w http.ResponseWriter, r *http.Request, status int, body string) {
	start := now()
	tl := obs.Timeline()
	tlStart := tl.WallNow()
	id := s.nextID()
	w.Header().Set("X-Request-Id", id)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	n, _ := io.WriteString(w, body)
	entry := AccessEntry{ID: id, Method: r.Method, Path: r.URL.Path, Status: status, Bytes: n}
	s.cHTTP.Inc()
	s.observe("probe", &entry, start, tl, tlStart)
}

// handleMetrics serves the default registry as Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := now()
	tl := obs.Timeline()
	tlStart := tl.WallNow()
	id := s.nextID()
	w.Header().Set("X-Request-Id", id)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	if err := obs.Default().WriteProm(&buf); err != nil {
		http.Error(w, "exposition failed", http.StatusInternalServerError)
		return
	}
	n, _ := w.Write(buf.Bytes())
	entry := AccessEntry{ID: id, Method: r.Method, Path: r.URL.Path, Status: http.StatusOK, Bytes: n}
	s.cHTTP.Inc()
	s.observe("metrics", &entry, start, tl, tlStart)
}

func (s *Server) nextID() string {
	return fmt.Sprintf("r%08d", s.reqSeq.Add(1))
}

// modelsResponse lists the corpus sorted by name.
func (s *Server) modelsResponse() ModelsResponse {
	var out ModelsResponse
	for _, name := range s.modelNames {
		m := s.corpus[name]
		out.Models = append(out.Models, ModelInfo{
			Name:    name,
			App:     m.App,
			NP:      m.NP,
			NPhases: len(m.Phases),
			Source:  m.SourceConfig,
		})
	}
	return out
}

// parsePredict validates a PredictRequest and closes over its computation.
func (s *Server) parsePredict(raw []byte) (parsed, *apiError) {
	var req PredictRequest
	if err := strictUnmarshal(raw, &req); err != nil {
		return parsed{}, errf(http.StatusBadRequest, "bad predict request: %v", err)
	}
	m, aerr := s.model(req.Model)
	if aerr != nil {
		return parsed{}, aerr
	}
	var cfgs []cluster.Spec
	if len(req.Configs) == 0 {
		for _, spec := range s.zoo {
			if m.NP <= spec.MaxProcs() {
				cfgs = append(cfgs, spec)
				// Fill the chosen names back in so the canonical form —
				// and therefore the flight fingerprint — is explicit.
				req.Configs = append(req.Configs, spec.Name)
			}
		}
		if len(cfgs) == 0 {
			return parsed{}, errf(http.StatusUnprocessableEntity,
				"no zoo configuration can host %d processes", m.NP)
		}
	} else {
		for _, name := range req.Configs {
			spec, ok := s.zooByName[name]
			if !ok {
				return parsed{}, errf(http.StatusNotFound,
					"unknown configuration %q (known: %s)", name, strings.Join(s.zooNames, ", "))
			}
			if m.NP > spec.MaxProcs() {
				return parsed{}, errf(http.StatusUnprocessableEntity,
					"model needs %d processes; %s holds %d", m.NP, spec.Name, spec.MaxProcs())
			}
			cfgs = append(cfgs, spec)
		}
	}
	canonical, err := json.Marshal(&req)
	if err != nil {
		return parsed{}, errf(http.StatusBadRequest, "canonicalizing request: %v", err)
	}
	opts := predict.EstimateOptions{FaithfulMixed: req.Faithful}
	compute := func() flightResult {
		ests, _, err := predict.EstimateAll(m, cfgs, opts)
		if err != nil {
			return jsonBody(http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		}
		resp := PredictResponse{App: m.App, NP: m.NP, NPhases: len(m.Phases)}
		best := -1
		for i, est := range ests {
			ch := PredictChoice{
				Config:  cfgs[i].Name,
				TimeIOS: est.TotalCH.Seconds(),
				IORRuns: est.IORRuns,
			}
			if req.Phases {
				for _, pe := range est.Phases {
					ch.Phases = append(ch.Phases, PhaseEstimate{
						Phase:    pe.Phase.ID,
						Dir:      string(pe.Phase.Direction()),
						NP:       pe.Phase.NP,
						RS:       pe.Phase.RequestSize(),
						Weight:   pe.Phase.Weight,
						BWMBps:   pe.BWch.MBpsValue(),
						TimeS:    pe.TimeCH.Seconds(),
						Faithful: pe.Faithful,
					})
				}
			}
			resp.Choices = append(resp.Choices, ch)
			if best < 0 || est.TotalCH < ests[best].TotalCH {
				best = i
			}
		}
		resp.Best = cfgs[best].Name
		return jsonBody(http.StatusOK, resp)
	}
	return parsed{canonical: canonical, compute: compute}, nil
}

// parseExplore validates an ExploreRequest and closes over its computation.
func (s *Server) parseExplore(raw []byte) (parsed, *apiError) {
	var req ExploreRequest
	if err := strictUnmarshal(raw, &req); err != nil {
		return parsed{}, errf(http.StatusBadRequest, "bad explore request: %v", err)
	}
	m, aerr := s.model(req.Model)
	if aerr != nil {
		return parsed{}, aerr
	}
	base, ok := s.zooByName[req.Base]
	if !ok {
		return parsed{}, errf(http.StatusNotFound,
			"unknown configuration %q (known: %s)", req.Base, strings.Join(s.zooNames, ", "))
	}
	if m.NP > base.MaxProcs() {
		return parsed{}, errf(http.StatusUnprocessableEntity,
			"model needs %d processes; %s holds %d", m.NP, base.Name, base.MaxProcs())
	}
	canonical, err := json.Marshal(&req)
	if err != nil {
		return parsed{}, errf(http.StatusBadRequest, "canonicalizing request: %v", err)
	}
	opts := predict.EstimateOptions{FaithfulMixed: req.Faithful}
	compute := func() flightResult {
		results, err := predict.ExploreOpts(m, predict.StandardVariants(base), opts)
		if err != nil {
			return jsonBody(http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		}
		var baselineSec float64
		for _, r := range results {
			if r.Variant.Name == "baseline" {
				baselineSec = r.Total.Seconds()
			}
		}
		resp := ExploreResponse{App: m.App, Base: base.Name, Best: results[0].Variant.Name}
		for rank, r := range results {
			row := ExploreRow{Rank: rank + 1, Variant: r.Variant.Name, TimeIOS: r.Total.Seconds()}
			if baselineSec > 0 && r.Total > 0 {
				row.VsBaseline = baselineSec / r.Total.Seconds()
			}
			resp.Results = append(resp.Results, row)
		}
		return jsonBody(http.StatusOK, resp)
	}
	return parsed{canonical: canonical, compute: compute}, nil
}

// parseCompareDegraded validates a CompareDegradedRequest and closes over
// its computation. Scenarios resolve against the built-in presets only —
// the server never reads files on behalf of a request.
func (s *Server) parseCompareDegraded(raw []byte) (parsed, *apiError) {
	var req CompareDegradedRequest
	if err := strictUnmarshal(raw, &req); err != nil {
		return parsed{}, errf(http.StatusBadRequest, "bad compare-degraded request: %v", err)
	}
	m, aerr := s.model(req.Model)
	if aerr != nil {
		return parsed{}, aerr
	}
	spec, ok := s.zooByName[req.Config]
	if !ok {
		return parsed{}, errf(http.StatusNotFound,
			"unknown configuration %q (known: %s)", req.Config, strings.Join(s.zooNames, ", "))
	}
	sch, ok := faults.Preset(req.Scenario)
	if !ok {
		return parsed{}, errf(http.StatusNotFound,
			"unknown scenario %q (known: %s)", req.Scenario, strings.Join(s.scenarios, ", "))
	}
	if req.PeakFileMiB == 0 {
		req.PeakFileMiB = 512
	}
	if req.PeakRSMiB == 0 {
		req.PeakRSMiB = 8
	}
	if req.PeakFileMiB < 1 || req.PeakFileMiB > 16384 || req.PeakRSMiB < 1 ||
		req.PeakRSMiB > 1024 || req.PeakRSMiB > req.PeakFileMiB {
		return parsed{}, errf(http.StatusUnprocessableEntity,
			"peak sizes out of range: file %d MiB (1..16384), rs %d MiB (1..1024, <= file)",
			req.PeakFileMiB, req.PeakRSMiB)
	}
	canonical, err := json.Marshal(&req)
	if err != nil {
		return parsed{}, errf(http.StatusBadRequest, "canonicalizing request: %v", err)
	}
	compute := func() flightResult {
		cmp, err := predict.CompareDegraded(m, spec, sch,
			req.PeakFileMiB*units.MiB, req.PeakRSMiB*units.MiB)
		if err != nil {
			return jsonBody(http.StatusUnprocessableEntity, ErrorResponse{Error: err.Error()})
		}
		resp := CompareDegradedResponse{
			App:       cmp.App,
			Config:    cmp.Config,
			Scenario:  cmp.Scenario,
			HealthyS:  cmp.HealthyTotal.Seconds(),
			DegradedS: cmp.DegradedTotal.Seconds(),
			Slowdown:  cmp.Slowdown(),
		}
		for _, pd := range cmp.Phases {
			resp.Phases = append(resp.Phases, PhaseDelta{
				Phase:         pd.Phase.ID,
				Dir:           string(pd.Phase.Direction()),
				HealthyMBps:   pd.Healthy.BWch.MBpsValue(),
				DegradedMBps:  pd.Degraded.BWch.MBpsValue(),
				HealthyS:      pd.Healthy.TimeCH.Seconds(),
				DegradedS:     pd.Degraded.TimeCH.Seconds(),
				HealthyUsage:  pd.HealthyUsage,
				DegradedUsage: pd.DegradedUsage,
			})
		}
		return jsonBody(http.StatusOK, resp)
	}
	return parsed{canonical: canonical, compute: compute}, nil
}

// model resolves a corpus model by name.
func (s *Server) model(name string) (*core.Model, *apiError) {
	m, ok := s.corpus[name]
	if !ok {
		return nil, errf(http.StatusNotFound,
			"unknown model %q (known: %s)", name, strings.Join(s.modelNames, ", "))
	}
	return m, nil
}
