package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"iophases/internal/core"
	"iophases/internal/obs"
)

func TestLimiterBudget(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(1, 1, reg)
	ctx := context.Background()

	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// One waiter fits the queue.
	acquired := make(chan error, 1)
	go func() { acquired <- l.Acquire(ctx) }()
	// Wait until it is actually queued so the next Acquire must overflow.
	for l.queued.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	// Queue full: immediate rejection, not a wait.
	if err := l.Acquire(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("expected ErrSaturated, got %v", err)
	}
	if got := reg.Counter("serve/rejected").Value(); got != 1 {
		t.Fatalf("rejected counter %d", got)
	}
	l.Release()
	if err := <-acquired; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	l.Release()

	if got := reg.Gauge("serve/inflight_max").Value(); got != 1 {
		t.Fatalf("inflight_max %d", got)
	}
	if got := reg.Gauge("serve/queue_max").Value(); got != 1 {
		t.Fatalf("queue_max %d", got)
	}
	if got := reg.Gauge("serve/inflight").Value(); got != 0 {
		t.Fatalf("inflight after release %d", got)
	}
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("queued after drain %d", got)
	}
	if got := reg.Histogram("serve/queue_wait_us").Count(); got != 1 {
		t.Fatalf("queue wait observations %d", got)
	}
}

func TestLimiterContextCancel(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLimiter(1, 4, reg)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.Acquire(ctx) }()
	for l.queued.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("queued after cancel %d", got)
	}
	// The slot is still held by the first acquirer; release and re-acquire
	// to prove no slot leaked.
	l.Release()
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.Release()
}

func TestLimiterQueueBoundExactUnderRace(t *testing.T) {
	reg := obs.NewRegistry()
	const inflight, queue = 2, 8
	l := NewLimiter(inflight, queue, reg)
	// Saturate the slots.
	for i := 0; i < inflight; i++ {
		if err := l.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Fire far more acquirers than the queue holds; exactly `queue` may
	// wait, the rest must be rejected.
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			errs[i] = l.Acquire(ctx)
			if errs[i] == nil {
				l.Release()
			}
		}(i)
	}
	// Drain the initial slots so waiters can proceed.
	for i := 0; i < inflight; i++ {
		l.Release()
	}
	wg.Wait()
	var admitted, rejected int
	for _, err := range errs {
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrSaturated):
			rejected++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if admitted+rejected != n || admitted == 0 {
		t.Fatalf("admitted %d rejected %d", admitted, rejected)
	}
	if got := reg.Gauge("serve/queue_max").Value(); got > queue {
		t.Fatalf("queue high watermark %d exceeded bound %d", got, queue)
	}
	if got := l.queued.Load(); got != 0 {
		t.Fatalf("queued after drain %d", got)
	}
	if got := reg.Gauge("serve/inflight").Value(); got != 0 {
		t.Fatalf("inflight after drain %d", got)
	}
}

// flightServer builds a ready server over corpus (the shared test model
// when nil) that admits one computation at a time and queues at most
// queue more, logging into the returned buffer.
func flightServer(t *testing.T, queue int, corpus map[string]*core.Model) (*Server, *bytes.Buffer) {
	t.Helper()
	if corpus == nil {
		corpus = map[string]*core.Model{"madbench2": testModel(t)}
	}
	logBuf := &bytes.Buffer{}
	s, err := New(Options{Corpus: corpus, Inflight: 1, Queue: queue, AccessLog: logBuf, FastPath: "off"})
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	return s, logBuf
}

// predictOn runs one predict query through s's handler under ctx.
func predictOn(ctx context.Context, s *Server, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// leadBlocked takes s's only admission slot and starts a query of body, so
// its computation waits in the admission queue until the caller releases
// the slot; it returns once that computation is running, with the
// channel its response arrives on.
func leadBlocked(t *testing.T, s *Server, body string) <-chan *httptest.ResponseRecorder {
	t.Helper()
	if err := s.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- predictOn(context.Background(), s, body) }()
	for s.flights.Len() != 1 {
		time.Sleep(time.Millisecond)
	}
	return leader
}

const flightBody = `{"model":"madbench2","configs":["configA"]}`

// Identical queries that arrive while one computes are counted in
// serve/coalesced before the leader returns and get its bytes; a repeat
// afterwards is a stored hit counted in serve/cache_hits.
func TestFlightGroupCoalesces(t *testing.T) {
	s, logBuf := flightServer(t, 8, nil)
	coalesced := obs.Default().Counter("serve/coalesced")
	cacheHits := obs.Default().Counter("serve/cache_hits")
	leader := leadBlocked(t, s, flightBody)
	coalescedBefore, hitsBefore := coalesced.Value(), cacheHits.Value()

	const n = 8
	var wg sync.WaitGroup
	followers := make([]*httptest.ResponseRecorder, n)
	for i := range followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			followers[i] = predictOn(context.Background(), s, flightBody)
		}()
	}
	for coalesced.Value() != coalescedBefore+n {
		time.Sleep(time.Millisecond)
	}
	s.limiter.Release()
	lead := <-leader
	wg.Wait()
	if lead.Code != http.StatusOK {
		t.Fatalf("leader status %d: %s", lead.Code, lead.Body)
	}
	for i, f := range followers {
		if f.Code != http.StatusOK || !bytes.Equal(f.Body.Bytes(), lead.Body.Bytes()) {
			t.Fatalf("follower %d: status %d, body %s", i, f.Code, f.Body)
		}
	}

	repeat := predictOn(context.Background(), s, flightBody)
	if !bytes.Equal(repeat.Body.Bytes(), lead.Body.Bytes()) {
		t.Fatalf("repeat body %s", repeat.Body)
	}
	if got := cacheHits.Value() - hitsBefore; got != 1 {
		t.Fatalf("serve/cache_hits advanced by %d, want 1", got)
	}
	var joined int
	entries := parseAccessLog(t, logBuf)
	for _, e := range entries {
		if e.Coalesced {
			joined++
		}
	}
	if last := entries[len(entries)-1]; joined != n || last.Cache != "hit" || last.Coalesced {
		t.Fatalf("%d coalesced entries, last entry %+v", joined, last)
	}
}

// TestFlightErrorsNotCached: non-200 results must be recomputed, not stuck
// in the response cache.
func TestFlightErrorsNotCached(t *testing.T) {
	s, logBuf := flightServer(t, -1, nil)
	if err := s.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rec := predictOn(context.Background(), s, flightBody); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated query: status %d", rec.Code)
	}
	s.limiter.Release()
	for _, want := range []string{"miss", "hit"} {
		if rec := predictOn(context.Background(), s, flightBody); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		entries := parseAccessLog(t, logBuf)
		if got := entries[len(entries)-1].Cache; got != want {
			t.Fatalf("cache %q, want %q", got, want)
		}
	}
}

// A follower whose client goes away is logged as 499 with nothing written,
// and the leader still answers.
func TestFlightFollowerHonorsContext(t *testing.T) {
	s, logBuf := flightServer(t, 8, nil)
	leader := leadBlocked(t, s, flightBody)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rec := predictOn(ctx, s, flightBody); rec.Body.Len() != 0 {
		t.Fatalf("canceled follower got a body: %s", rec.Body)
	}
	s.limiter.Release()
	if rec := <-leader; rec.Code != http.StatusOK {
		t.Fatalf("leader status %d", rec.Code)
	}
	follower := parseAccessLog(t, logBuf)[0]
	if follower.Status != 499 || !follower.Coalesced || !strings.Contains(follower.Err, "canceled") {
		t.Fatalf("follower entry %+v", follower)
	}
}

// The response cache keeps at most respCacheCap responses, dropping the
// least recently used one first.
func TestFlightResponseCacheBounded(t *testing.T) {
	corpus := map[string]*core.Model{}
	for i := 0; i <= respCacheCap; i++ {
		corpus[fmt.Sprintf("m%d", i)] = testModel(t)
	}
	s, _ := flightServer(t, 8, corpus)
	cacheHits := obs.Default().Counter("serve/cache_hits")
	stored := func(i int) bool {
		before := cacheHits.Value()
		body := fmt.Sprintf(`{"model":"m%d","configs":["configA"]}`, i)
		if rec := predictOn(context.Background(), s, body); rec.Code != http.StatusOK {
			t.Fatalf("m%d: status %d: %s", i, rec.Code, rec.Body)
		}
		return cacheHits.Value() != before
	}
	for i := 0; i <= respCacheCap; i++ {
		stored(i)
	}
	if got := s.flights.Len(); got != respCacheCap {
		t.Fatalf("response cache holds %d, cap %d", got, respCacheCap)
	}
	if !stored(respCacheCap) {
		t.Fatal("the newest response was dropped")
	}
	if stored(0) {
		t.Fatal("the least recently used response survived")
	}
}
