package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"iophases/internal/core"
	"iophases/internal/trace"
)

func TestInputsRepeatForOneSeed(t *testing.T) {
	a, b := inputDigests(defaultSeed), inputDigests(defaultSeed)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed %d generated different inputs:\n%v\n%v", defaultSeed, a, b)
	}
}

func TestSecondSeedChangesEveryInput(t *testing.T) {
	a, b := inputDigests(defaultSeed), inputDigests(secondSeed)
	for key, d := range a {
		if b[key] == d {
			t.Errorf("%s inputs are the same on seeds %d and %d", key, defaultSeed, secondSeed)
		}
	}
}

func TestSynthExpectationHolds(t *testing.T) {
	// The extraction check rests on expectOf; pin it against the generator
	// on small traces of every shape the seeds draw from.
	for _, np := range []int{4, 8, 16} {
		for _, round := range []int64{64, 128} {
			sp := trace.SynthSpec{NP: np, EventsPerRank: 4096 / int64(np), RoundLen: round, RequestSize: 64 << 10}
			src, err := trace.Synth(sp)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.BuildStream(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkExtract(m, expectOf(sp)); err != nil {
				t.Errorf("%+v: %v", sp, err)
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// own workload and metric lists from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []layerMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames())
	}
	var e2e []string
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	if want := []string{"op_ms", "ops_per_s", "peak_rss_mib", "setup_s", "tail_ms"}; !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", e2e, want)
	}
	if !reflect.DeepEqual(cfg.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
}
