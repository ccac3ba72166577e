package sweep

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"iophases/internal/obs"
)

// Pool telemetry is first-class: it lands on the obs default registry with
// telemetry disabled, so a resident server's /metrics sees pool pressure
// without any flag. The task and busy-time tallies land before MapN
// returns, and busy time covers every task's running time.
func TestPoolMetricsAlwaysOn(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("test assumes telemetry is disabled")
	}
	reg := obs.Default()
	tasks0 := reg.Counter("sweep/tasks").Value()
	busy0 := reg.Counter("sweep/busy_ns").Value()

	const items, workers, d = 12, 3, time.Millisecond
	MapN(workers, make([]int, items), func(i int, _ int) int {
		time.Sleep(d)
		return i * i
	})

	if got := reg.Counter("sweep/tasks").Value() - tasks0; got != items {
		t.Fatalf("sweep/tasks advanced by %d, want %d", got, items)
	}
	if got := time.Duration(reg.Counter("sweep/busy_ns").Value() - busy0); got < items*d {
		t.Fatalf("sweep/busy_ns advanced by %v, want at least %v for %d tasks of %v", got, items*d, items, d)
	}
	// High-water gauges: other tests in the package share the default
	// registry, so assert the floor this call guarantees, not equality.
	if got := reg.Gauge("sweep/workers_max").Value(); got < workers {
		t.Fatalf("sweep/workers_max %d, want >= %d", got, workers)
	}
	if got := reg.Gauge("sweep/queue_max").Value(); got < items-workers {
		t.Fatalf("sweep/queue_max %d, want >= %d (backlog of %d items on %d workers)",
			got, items-workers, items, workers)
	}
}

// The pool's metrics appear in both exposition formats served off the
// default registry: the -metrics text dump and the Prometheus /metrics page.
func TestPoolMetricsVisibleInExposition(t *testing.T) {
	Map(make([]int, 4), func(i int, _ int) int { return i })

	var text bytes.Buffer
	if err := obs.Default().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sweep/tasks", "sweep/busy_ns", "sweep/workers_max"} {
		if !strings.Contains(text.String(), name) {
			t.Errorf("WriteText output missing %q", name)
		}
	}

	var prom bytes.Buffer
	if err := obs.Default().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"# TYPE sweep_tasks counter",
		"# TYPE sweep_workers_max gauge",
	} {
		if !strings.Contains(prom.String(), line) {
			t.Errorf("WriteProm output missing %q", line)
		}
	}
}
