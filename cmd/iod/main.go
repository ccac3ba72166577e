// Command iod is the resident prediction service: it loads an I/O-model
// corpus once (saved model JSONs and/or a built-in MADBench2
// characterization), warms the replay cache, and answers analysis queries
// over HTTP — the paper's §III-B workflow as a daemon instead of a batch
// run.
//
//	POST /v1/predict           estimate Time_io per configuration, pick the best
//	POST /v1/explore           what-if sweep around a base configuration
//	POST /v1/compare-degraded  healthy-vs-degraded delta under a fault preset
//	GET  /v1/models|configs|scenarios   the queryable universe
//	GET  /metrics              Prometheus text exposition of the obs registry
//	GET  /healthz, /readyz     liveness; readiness flips after cache warmup
//	GET  /debug/pprof/         runtime profiles (only with -pprof)
//
// Usage:
//
//	iod                                  # builtin MADBench2 corpus on localhost:8080
//	iod -addr :9090 -models m1.json,m2.json -access-log access.jsonl
//	iod -timeline run.trace              # per-request spans, dumped at shutdown
//
// Identical queries return byte-identical bodies at any concurrency;
// concurrent identical queries coalesce into one computation. SIGINT/
// SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"iophases"
	"iophases/internal/core"
	"iophases/internal/obs"
	"iophases/internal/report"
	"iophases/internal/serve"
	"iophases/internal/sweep"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	models := flag.String("models", "", "comma-separated model JSON paths (iomodel -save output); corpus names are the file basenames")
	builtin := flag.Bool("builtin", true, "characterize the built-in MADBench2 run in-process and serve it as \"madbench2\"")
	builtinNP := flag.Int("builtin-np", 16, "process count for the builtin characterization")
	warm := flag.Bool("warm", true, "prefill the replay cache for every (model, configuration) pair before readiness")
	inflight := flag.Int("inflight", 0, "max concurrent query computations (0 = 2*GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued query computations before 503 (0 = 1024)")
	jobs := flag.Int("j", 0, "sweep worker pool size per computation (0 = GOMAXPROCS)")
	fastpathFlag := flag.String("fastpath", "on", "analytic fast path for contention-free IOR replays: off, on, or verify")
	accessLog := flag.String("access-log", "-", "JSON access-log destination: '-' = stdout, '' = disabled, else a file path (appended)")
	pprofFlag := flag.Bool("pprof", false, "expose /debug/pprof/ runtime profiling endpoints")
	timeline := flag.String("timeline", "", "record per-request wall-clock spans and write a Chrome trace_event timeline here at shutdown")
	flag.Parse()

	if err := run(*addr, *models, *builtin, *builtinNP, *warm, *inflight, *queue,
		*jobs, *fastpathFlag, *accessLog, *pprofFlag, *timeline); err != nil {
		fmt.Fprintf(os.Stderr, "iod: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, models string, builtin bool, builtinNP int, warm bool,
	inflight, queue, jobs int, fastpathFlag string,
	accessLog string, pprofFlag bool, timeline string) error {
	fpMode, err := iophases.ParseFastPath(fastpathFlag)
	if err != nil {
		return err
	}
	iophases.SetFastPath(fpMode)
	sweep.SetConcurrency(jobs)
	// The /metrics endpoint reads the always-on default registry; the hot
	// simulation registry and the timeline recorder stay off unless span
	// tracing was requested, so the steady-state request path pays nothing
	// for them.
	if timeline != "" {
		obs.SetEnabled(true)
		obs.StartTimeline(0)
	}

	corpus, err := buildCorpus(models, builtin, builtinNP)
	if err != nil {
		return err
	}

	logW, logClose, err := openAccessLog(accessLog)
	if err != nil {
		return err
	}
	if logClose != nil {
		defer logClose()
	}

	srv, err := serve.New(serve.Options{
		Corpus:      corpus,
		Inflight:    inflight,
		Queue:       queue,
		FastPath:    fastpathFlag,
		AccessLog:   logW,
		EnablePprof: pprofFlag,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "iod: serving %d model(s) [%s] on http://%s (fastpath=%s, pprof=%v)\n",
		len(corpus), strings.Join(srv.ModelNames(), ", "), addr, fastpathFlag, pprofFlag)

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}

	// Warm in the background so the listener (and /healthz) come up
	// immediately; /readyz flips once the cache holds every (model,
	// configuration) replay.
	go func() {
		if !warm {
			srv.SetReady(true)
			fmt.Fprintln(os.Stderr, "iod: ready (warmup skipped)")
			return
		}
		t0 := time.Now()
		if err := srv.Warm(); err != nil {
			fmt.Fprintf(os.Stderr, "iod: warmup: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "iod: ready (warmed in %.1fs)\n", time.Since(t0).Seconds())
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "iod: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if timeline != "" {
		if err := report.SaveTelemetry("", timeline); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "iod: wrote timeline to %s\n", timeline)
	}
	fmt.Fprintln(os.Stderr, "iod: bye")
	return nil
}

// buildCorpus assembles the immutable model corpus: saved models keyed by
// file basename, plus the optional builtin characterization.
func buildCorpus(models string, builtin bool, builtinNP int) (map[string]*core.Model, error) {
	corpus := make(map[string]*core.Model)
	if models != "" {
		for _, path := range strings.Split(models, ",") {
			path = strings.TrimSpace(path)
			m, err := iophases.LoadModel(path)
			if err != nil {
				return nil, err
			}
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			if _, dup := corpus[name]; dup {
				return nil, fmt.Errorf("duplicate model name %q (from %s)", name, path)
			}
			corpus[name] = m
		}
	}
	if builtin {
		if _, dup := corpus["madbench2"]; dup {
			return nil, errors.New(`-builtin conflicts with a loaded model named "madbench2"`)
		}
		cfg := iophases.ConfigA()
		if builtinNP < 1 || builtinNP > cfg.MaxProcs() {
			return nil, fmt.Errorf("-builtin-np %d: want 1..%d (%s capacity)",
				builtinNP, cfg.MaxProcs(), cfg.Name)
		}
		res := iophases.TraceMADBench2(cfg, builtinNP,
			iophases.DefaultMADBench(), iophases.RunOptions{})
		corpus["madbench2"] = iophases.Extract(res.Set)
	}
	if len(corpus) == 0 {
		return nil, errors.New("empty corpus: pass -models or enable -builtin")
	}
	return corpus, nil
}

// openAccessLog resolves the -access-log flag. Files are opened in append
// mode so restarts extend, not truncate, the log.
func openAccessLog(dest string) (io.Writer, func() error, error) {
	switch dest {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stdout, nil, nil
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("access log: %w", err)
		}
		return f, f.Close, nil
	}
}
