package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"iophases/internal/obs"
	"iophases/internal/report"
)

func TestSelectExperimentsAll(t *testing.T) {
	got, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experiments) {
		t.Fatalf("all selected %d of %d", len(got), len(experiments))
	}
}

func TestSelectExperimentsSubsetKeepsCanonicalOrder(t *testing.T) {
	// Request out of registry order; selection must come back canonical.
	got, err := selectExperiments("table9, fig3,fig2")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, ex := range got {
		ids = append(ids, ex.id)
	}
	if want := "fig2,fig3,table9"; strings.Join(ids, ",") != want {
		t.Fatalf("selection order %v, want %s", ids, want)
	}
}

func TestSelectExperimentsUnknownIsError(t *testing.T) {
	for _, flag := range []string{"nosuch", "fig2,nosuch", "fig2,,fig3", ""} {
		if _, err := selectExperiments(flag); err == nil {
			t.Errorf("selectExperiments(%q) succeeded, want error", flag)
		}
	}
	// Unknown ids must be named in the message so the failure is actionable.
	_, err := selectExperiments("fig2,bogus1,bogus0")
	if err == nil || !strings.Contains(err.Error(), "bogus0, bogus1") {
		t.Fatalf("error %v does not name the unknown ids", err)
	}
}

func TestSelectExperimentsAllInsideList(t *testing.T) {
	got, err := selectExperiments("fig2,all")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(experiments) {
		t.Fatalf("'fig2,all' selected %d of %d", len(got), len(experiments))
	}
}

// TestParallelOutputByteIdentical is the determinism contract of the -j
// flag: the same selection at -j 1 and -j 4 must produce identical stdout
// bytes. Uses a cheap subset so the test stays fast; the full `-run all
// -quick` comparison is exercised by bench.sh / CI.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	selected, err := selectExperiments("fig3,fig5")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		var out bytes.Buffer
		runExperiments(selected, true, workers, &out, &bytes.Buffer{}, false)
		return out.Bytes()
	}
	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("-j 4 output (%d bytes) differs from -j 1 (%d bytes)",
			len(parallel), len(serial))
	}
	if !bytes.Contains(serial, []byte("[fig3]")) || !bytes.Contains(serial, []byte("[fig5]")) {
		t.Fatal("output missing experiment headers")
	}
}

// TestExtractionGolden pins the paper's extraction outputs — the LAP
// tables of Fig. 3, the phases of Fig. 4 and Tables VIII and XI — byte for
// byte against `experiments -run fig3,fig4,table8,table11 -quick -j 1`
// output recorded in testdata/extraction.golden.
func TestExtractionGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	want, err := os.ReadFile("testdata/extraction.golden")
	if err != nil {
		t.Fatal(err)
	}
	selected, err := selectExperiments("fig3,fig4,table8,table11")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	runExperiments(selected, true, 1, &out, &bytes.Buffer{}, false)
	if got := out.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("output differs from testdata/extraction.golden:\n%s", got)
	}
}

// TestTelemetryDoesNotPerturbOutput is the observability invariant at CLI
// level: running with metrics + timeline collection enabled must produce
// stdout bytes identical to a run with telemetry off. Telemetry writes only
// to its own files and stderr, and instrumentation never reorders DES
// events.
func TestTelemetryDoesNotPerturbOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	selected, err := selectExperiments("fig3,fig5,table8")
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		var out bytes.Buffer
		runExperiments(selected, true, 2, &out, &bytes.Buffer{}, false)
		return out.Bytes()
	}
	plain := run()

	obs.StartTimeline(0) // also enables metric collection
	defer func() {
		obs.StopTimeline()
		obs.SetEnabled(false)
		obs.ResetTelemetry()
		obs.Default().Reset()
	}()
	instrumented := run()

	if !bytes.Equal(plain, instrumented) {
		t.Fatalf("telemetry-enabled stdout (%d bytes) differs from disabled (%d bytes)",
			len(instrumented), len(plain))
	}
	if obs.Default().Counter("des/events_scheduled").Value() == 0 {
		t.Fatal("instrumented run recorded no engine events")
	}
	if obs.Timeline().Len() == 0 {
		t.Fatal("instrumented run recorded no timeline spans")
	}
}

// TestTable12TimelineHasPhaseSpans is the acceptance check on the timeline
// content: a table12 -quick run must emit one span per identified I/O phase
// carrying the weight/rs/np/bandwidth attributes, and the metrics dumps
// (JSON and text) must both render.
func TestTable12TimelineHasPhaseSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	selected, err := selectExperiments("table12")
	if err != nil {
		t.Fatal(err)
	}
	obs.ResetTelemetry()
	obs.Default().Reset()
	obs.StartTimeline(0)
	defer func() {
		obs.StopTimeline()
		obs.SetEnabled(false)
		obs.ResetTelemetry()
		obs.Default().Reset()
	}()
	runExperiments(selected, true, 2, &bytes.Buffer{}, &bytes.Buffer{}, false)

	var tl bytes.Buffer
	if err := obs.Timeline().WriteJSON(&tl); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tl.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	measured := 0
	for _, r := range obs.Phases() {
		if r.Source == "measured" {
			measured++
		}
	}
	if measured == 0 {
		t.Fatal("table12 recorded no measured phase rows")
	}
	phaseSpans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "B" || !strings.HasPrefix(ev.Name, "phase ") || ev.Args == nil {
			continue
		}
		var args map[string]any
		if err := json.Unmarshal(ev.Args, &args); err != nil {
			t.Fatalf("span args do not parse: %v", err)
		}
		for _, key := range []string{"weight", "rs", "np", "bwMBps"} {
			if _, ok := args[key]; !ok {
				t.Fatalf("phase span %q missing arg %q: %v", ev.Name, key, args)
			}
		}
		phaseSpans++
	}
	if phaseSpans < measured {
		t.Fatalf("%d attributed phase spans for %d measured phases", phaseSpans, measured)
	}

	var js bytes.Buffer
	if err := report.WriteMetricsJSON(&js); err != nil {
		t.Fatal(err)
	}
	var dump map[string]json.RawMessage
	if err := json.Unmarshal(js.Bytes(), &dump); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if dump["metrics"] == nil || dump["phases"] == nil {
		t.Fatalf("metrics dump missing sections: %v", dump)
	}
	var txt bytes.Buffer
	if err := report.WriteMetricsText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "Telemetry:") {
		t.Fatal("text metrics dump missing the Telemetry table")
	}
}
