package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"iophases/internal/cluster"
	"iophases/internal/serve"
	"iophases/internal/trace"
	"iophases/internal/units"
)

// Every input a workload feeds the program is generated here from the
// workload seed; the program only ever sees the generated traces, models
// and requests. The seed varies what does not move the cost class (busy
// work between I/O calls, request sizes whose replays cost the same, shapes
// with a fixed event total, the order of the op stream), so runs on
// different seeds stay comparable.

// defaultSeed is the seed runs use when none is given. Claims are re-checked
// on secondSeed, which no tuning used.
const (
	defaultSeed = 1
	secondSeed  = 2
)

// app is one traced application run of a corpus.
type app struct {
	Name   string // "madbench2" or "btio"
	NP     int
	RS     int64  // MADBench2 request size per process
	Class  string // BT-IO class
	BusyMS int    // MADBench2 busy work per bin, or BT-IO solve work per step
}

// label names the run the way iotrace would.
func (a app) label() string {
	if a.Name == "btio" {
		return fmt.Sprintf("btio-%s-np%d", a.Class, a.NP)
	}
	return fmt.Sprintf("madbench2-np%d-rs%dKiB", a.NP, a.RS/units.KiB)
}

// selectCorpus returns the cold-selection corpus and its op order. The
// three (np, request size, class) points were chosen because their cold
// selections fall in one cost class (30 to 50 ms each on a 2-core box), and
// with three equally weighted points the median falls inside the middle
// point's distribution, never in a gap between points. Together they
// replay write, read, mixed write-read and collective phases.
func selectCorpus(seed int64) ([]app, []int) {
	rng := rand.New(rand.NewSource(seed))
	apps := []app{
		{Name: "madbench2", NP: 16, RS: 1 * units.MiB},
		{Name: "madbench2", NP: 8, RS: 2 * units.MiB},
		{Name: "btio", NP: 9, Class: "A"},
	}
	for i := range apps {
		if apps[i].Name == "btio" {
			apps[i].BusyMS = 20 + 5*rng.Intn(9)
		} else {
			apps[i].BusyMS = 100 + 25*rng.Intn(13)
		}
	}
	return apps, rng.Perm(len(apps))
}

// whatifApp returns the np=1 MADBench2 run whose model the what-if
// workload explores. The request sizes offered keep every phase within two
// server cache chunks, where the closed-form cost of an exploration does
// not depend on the draw (within 3 %; 128 KiB and 2 MiB already cost 10 %
// more).
func whatifApp(seed int64) app {
	rng := rand.New(rand.NewSource(seed + 1000))
	sizes := []int64{256 * units.KiB, 512 * units.KiB, 1 * units.MiB}
	return app{
		Name:   "madbench2",
		NP:     1,
		RS:     sizes[rng.Intn(len(sizes))],
		BusyMS: 100 + 25*rng.Intn(13),
	}
}

// synthTotal is the event count every extraction input holds, whatever its
// shape, so the inputs share one cost class. An op takes 60 to 90 ms, so a
// 25-second run holds 250 to 400 ops, more than twice the 100 that p90
// needs for ten samples beyond it.
const synthTotal = 1 << 19

// synthSpecs returns the extraction inputs: IOBIN1 traces of seeded shape.
// Every seed gets one trace per process count, so the mix of shapes — and
// with it the median — is the same from seed to seed; the seed draws the
// round lengths, request sizes and the order.
func synthSpecs(seed int64) []trace.SynthSpec {
	rng := rand.New(rand.NewSource(seed + 2000))
	nps := []int{4, 8, 16}
	rounds := []int64{4096, 8192}
	sizes := []int64{64 * units.KiB, 256 * units.KiB, 1 * units.MiB}
	specs := make([]trace.SynthSpec, len(nps))
	for i, j := range rng.Perm(len(nps)) {
		np := nps[j]
		specs[i] = trace.SynthSpec{
			App:           fmt.Sprintf("synth%d", i),
			NP:            np,
			EventsPerRank: synthTotal / int64(np),
			RoundLen:      rounds[rng.Intn(len(rounds))],
			RequestSize:   sizes[rng.Intn(len(sizes))],
		}
	}
	return specs
}

// serveCorpus returns the models the in-process iod serves. Their shapes
// are fixed, so the warm pass costs the same for every seed.
func serveCorpus(seed int64) []app {
	rng := rand.New(rand.NewSource(seed + 3000))
	return []app{
		{Name: "madbench2", NP: 4, RS: 1 * units.MiB, BusyMS: 100 + 25*rng.Intn(13)},
		{Name: "madbench2", NP: 8, RS: 1 * units.MiB, BusyMS: 100 + 25*rng.Intn(13)},
		{Name: "btio", NP: 4, Class: "W", BusyMS: 20 + 5*rng.Intn(9)},
	}
}

// request is one iod request of the serve-hit stream.
type request struct {
	Method string
	Path   string
	Body   string
}

// serveRequests returns the distinct requests and the stream that cycles
// over them. The stream's proportions are an assumption, not recorded
// traffic: the repo's load generator (cmd/iodload) and its CI smoke test
// send predict queries alone, so predict fills 16 of every 19 requests, and
// explore, compare-degraded and the /v1/models listing appear once each —
// the least that keeps every request kind measured. The seed draws the
// predict queries and the order; the explore and compare-degraded queries
// are fixed because priming them simulates, and setup must cost the same on
// every seed.
func serveRequests(seed int64, models []string) (distinct []request, stream []int) {
	rng := rand.New(rand.NewSource(seed + 4000))
	index := map[request]int{}
	add := func(r request) int {
		if i, ok := index[r]; ok {
			return i
		}
		index[r] = len(distinct)
		distinct = append(distinct, r)
		return index[r]
	}
	post := func(path string, v any) request {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(err) // the request types are plain structs
		}
		return request{Method: "POST", Path: path, Body: string(raw)}
	}
	var block []int
	for len(block) < 16 {
		// The served zoo is the four presets; an empty subset asks for all.
		var cfgs []string
		for _, spec := range cluster.Presets() {
			if rng.Intn(2) == 0 {
				cfgs = append(cfgs, spec.Name)
			}
		}
		block = append(block, add(post("/v1/predict", serve.PredictRequest{
			Model:   models[rng.Intn(len(models))],
			Configs: cfgs,
			Phases:  rng.Intn(2) == 0,
		})))
	}
	block = append(block,
		add(post("/v1/explore", serve.ExploreRequest{Model: models[0], Base: "configA"})),
		add(post("/v1/compare-degraded", serve.CompareDegradedRequest{
			Model: models[2], Config: "configA", Scenario: "slow-disk",
		})),
		add(request{Method: "GET", Path: "/v1/models"}))
	for len(stream) < 16*len(block) {
		for _, i := range rng.Perm(len(block)) {
			stream = append(stream, block[i])
		}
	}
	return distinct, stream
}

// inputDigests fingerprints every generated input of a seed: the traced
// corpora, the synthetic trace shapes and the request stream.
func inputDigests(seed int64) map[string]string {
	corpus, order := selectCorpus(seed)
	served := serveCorpus(seed)
	var names []string
	for _, a := range served {
		names = append(names, a.label())
	}
	distinct, stream := serveRequests(seed, names)
	return map[string]string{
		"corpus":  digestOf(corpus, order, whatifApp(seed), served),
		"synth":   digestOf(synthSpecs(seed)),
		"request": digestOf(distinct, stream),
	}
}

// digestOf is the SHA-256 of the values' JSON encoding.
func digestOf(vs ...any) string {
	raw, err := json.Marshal(vs)
	if err != nil {
		panic(err) // digests only cover plain data
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
