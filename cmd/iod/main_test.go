package main

import (
	"path/filepath"
	"strings"
	"testing"

	"iophases"
)

// TestBuildCorpusBuiltinNP pins that an out-of-range -builtin-np is a
// startup error naming the flag, not a panic inside the simulator.
func TestBuildCorpusBuiltinNP(t *testing.T) {
	limit := iophases.ConfigA().MaxProcs()
	cases := []struct {
		np   int
		want string // "" = accepted
	}{
		{0, "-builtin-np 0"},
		{-1, "-builtin-np -1"},
		{limit + 1, "capacity"},
		{2, ""},
	}
	for _, tc := range cases {
		corpus, err := buildCorpus("", true, tc.np)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("np=%d: rejected: %v", tc.np, err)
		case tc.want == "" && corpus["madbench2"] == nil:
			t.Errorf("np=%d: no builtin model", tc.np)
		case tc.want != "" && err == nil:
			t.Errorf("np=%d: accepted, want error containing %q", tc.np, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("np=%d: error %q, want it to contain %q", tc.np, err, tc.want)
		}
	}
}

// TestBuildCorpusRejectsBadModel pins that a -models file whose phase
// cannot be replayed stops iod at startup with an error naming the file
// and the phase, instead of serving and then panicking in the warm pass.
func TestBuildCorpusRejectsBadModel(t *testing.T) {
	params := iophases.DefaultMADBench()
	params.RS = 1 << 20
	m := iophases.Extract(iophases.TraceMADBench2(iophases.ConfigA(), 4, params, iophases.RunOptions{}).Set)
	m.Phases[1].NP = 0
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	_, err := buildCorpus(path, false, 0)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "model phase 2: np 0") {
		t.Fatalf("err = %v, want one naming %s and phase 2", err, path)
	}
}
