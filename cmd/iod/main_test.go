package main

import (
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
