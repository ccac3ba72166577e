package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"iophases/internal/core"
	"iophases/internal/obs"
	"iophases/internal/serve"
	"iophases/internal/simcache"
)

// serve-hit: one op is one HTTP request over loopback to an in-process iod,
// from one client over one keep-alive connection. Setup warms the server
// and sends every distinct request once, so every timed query is answered
// from the response cache: serve and net/http do all the work and no
// simulation runs.
type serveHit struct {
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	conn     net.Conn
	br       *bufio.Reader
	body     bytes.Buffer // the last response's body
	base     string
	distinct []request
	reqs     []*http.Request // each distinct request, for reading its response
	wire     [][]byte        // each distinct request as sent
	refs     [][]byte        // setup's body for each distinct request
	stream   []int
	hits     *obs.Counter // serve/cache_hits
}

func newServeHit(seed int64, dir string, st *setupStats) (workload, error) {
	simcache.Reset()
	corpus := map[string]*core.Model{}
	var names []string
	for _, a := range serveCorpus(seed) {
		set, err := traceCorpusApp(a, st)
		if err != nil {
			return nil, err
		}
		corpus[a.label()] = core.Build(set)
		names = append(names, a.label())
	}
	srv, err := serve.New(serve.Options{Corpus: corpus, AccessLog: io.Discard, FastPath: "on"})
	if err != nil {
		return nil, err
	}
	if err := st.timed("serve.warm", srv.Warm); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serveHit{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		hits:   obs.Default().Counter("serve/cache_hits"),
	}
	go func() { w.served <- w.hs.Serve(ln) }()
	if w.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		w.close()
		return nil, err
	}
	w.br = bufio.NewReader(w.conn)
	w.distinct, w.stream = serveRequests(seed, names)
	for k, r := range w.distinct {
		req, err := r.httpRequest(w.base)
		if err != nil {
			w.close()
			return nil, err
		}
		var wire bytes.Buffer
		if err := req.Write(&wire); err != nil {
			w.close()
			return nil, err
		}
		w.reqs = append(w.reqs, req)
		w.wire = append(w.wire, wire.Bytes())
		status, body, err := w.send(k)
		if err != nil {
			w.close()
			return nil, err
		}
		if status != http.StatusOK {
			w.close()
			return nil, fmt.Errorf("priming %s %s: status %d: %s", r.Method, r.Path, status, body)
		}
		w.refs = append(w.refs, bytes.Clone(body))
	}
	return w, nil
}

func (r request) httpRequest(base string) (*http.Request, error) {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, base+r.Path, body)
	if err != nil {
		return nil, err
	}
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// send makes distinct request k on the keep-alive connection and reads the
// whole response; the body stays valid until the next send. The client
// writes the request bytes encoded in setup and reads from the caller's
// goroutine, not through http.Transport's reader and writer goroutines, so
// a round trip hands off between goroutines twice instead of five times
// and the client allocates little: most of the wake-ups and collections
// the loop sees are the server's.
func (w *serveHit) send(k int) (int, []byte, error) {
	if _, err := w.conn.Write(w.wire[k]); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(w.br, w.reqs[k])
	if err != nil {
		return 0, nil, err
	}
	w.body.Reset()
	_, err = w.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.Close {
		err = errors.New("the server closed the keep-alive connection")
	}
	return resp.StatusCode, w.body.Bytes(), err
}

func (w *serveHit) check(k, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", w.distinct[k].Method, w.distinct[k].Path, status)
	}
	if !bytes.Equal(body, w.refs[k]) {
		return fmt.Errorf("%s %s: body differs from setup's", w.distinct[k].Method, w.distinct[k].Path)
	}
	return nil
}

func (w *serveHit) op(i int) error {
	k := w.stream[i%len(w.stream)]
	r := w.distinct[k]
	hits0 := w.hits.Value()
	status, body, err := w.send(k)
	if err != nil {
		return err
	}
	if err := w.check(k, status, body); err != nil {
		return err
	}
	// Guard: every query is answered from the response cache, which counts
	// the hit before the response is written; the static /v1/models
	// listing never touches the cache.
	want := int64(0)
	if r.Method == "POST" {
		want = 1
	}
	if got := w.hits.Value() - hits0; got != want {
		return fmt.Errorf("guard: %s %s moved serve/cache_hits by %d, want %d", r.Method, r.Path, got, want)
	}
	return nil
}

func (w *serveHit) input(i int) string {
	r := w.distinct[w.stream[i%len(w.stream)]]
	return r.Method + " " + r.Path
}

func (w *serveHit) tracedOps() int { return len(w.stream) }

func (w *serveHit) tracedOp(i int, t *tracing) error {
	k := w.stream[i%len(w.stream)]
	r := w.distinct[k]
	before := readCounters()
	opID := t.rec.begin("op serve-hit", -1, i)
	status, body, err := w.send(k)
	t.rec.end(opID)
	if err != nil {
		return err
	}
	op := t.rec.get(opID)
	t.countOp(before, readCounters(), op.dur(), false)
	if r.Method == "POST" {
		t.counts["serve.queries"]++
	}
	if err := w.check(k, status, body); err != nil {
		return err
	}
	// The same request through the handler in process: the handler's
	// share of the round trip, and the transport's as the rest.
	req, err := r.httpRequest(w.base)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	h := t.rec.timed("serve.Handler", -1, i, func() { w.srv.Handler().ServeHTTP(rec, req) })
	if err := w.check(k, rec.Code, rec.Body.Bytes()); err != nil {
		return fmt.Errorf("in process: %w", err)
	}
	t.call("serve.handler", h.dur())
	t.call("serve.transport", op.dur()-h.dur())
	return nil
}

func (w *serveHit) close() {
	if w.conn != nil {
		w.conn.Close()
	}
	w.hs.Close()
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("perfbench: serve:", err)
	}
}
