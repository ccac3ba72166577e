package main

import (
	"strings"
	"testing"

	"iophases/internal/trace"
)

// TestFormatFlag pins -format's names, the extension the "traces saved"
// line prints, and the line a bad value ends in: main prints
// trace.ParseFormat's error after "iotrace: ", so the line reads
// `iotrace: trace: unknown format "bogus" (want text or binary)`.
func TestFormatFlag(t *testing.T) {
	for name, ext := range map[string]string{"text": ".txt", "binary": ".bin"} {
		f, err := trace.ParseFormat(name)
		if err != nil {
			t.Fatalf("-format %s: %v", name, err)
		}
		if f.String() != name || f.Ext() != ext {
			t.Errorf("-format %s: parsed as %s with extension %s, want %s", name, f, f.Ext(), ext)
		}
	}
	_, err := trace.ParseFormat("bogus")
	const want = `trace: unknown format "bogus" (want text or binary)`
	if err == nil || err.Error() != want {
		t.Fatalf("-format bogus: err %v, want %q", err, want)
	}
}

// TestCheckFlags pins that every flag value the kernels cannot run is
// refused up front with a diagnostic, and that valid runs pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name           string
		app            string
		np, nbin, kpix int
		subtype        string
		want           string // "" = accepted
	}{
		{"madbench default", "madbench2", 16, 8, 8, "full", ""},
		{"zero procs", "madbench2", 0, 8, 8, "full", "-np 0"},
		{"negative procs", "madbench2", -2, 8, 8, "full", "-np -2"},
		{"zero bins", "madbench2", 16, 0, 8, "full", "nbin=0"},
		{"one bin", "madbench2", 2, 1, 8, "full", "nbin=1"},
		{"zero kpix", "madbench2", 16, 8, 0, "full", "-kpix 0"},
		{"negative kpix", "madbench2", 2, 8, -1, "full", "-kpix -1"},
		{"subtype ignored off btio", "madbench2", 16, 8, 8, "foo", ""},
		{"btio square", "btio", 16, 8, 8, "simple", ""},
		{"btio epio", "btio", 4, 8, 8, "epio", ""},
		{"btio non-square", "btio", 3, 8, 8, "full", "np=3 is not a positive square"},
		{"btio zero procs", "btio", 0, 8, 8, "full", "-np 0"},
		{"btio bad subtype", "btio", 4, 8, 8, "foo", `subtype "foo"`},
		{"roms any count", "roms", 3, 8, 8, "full", ""},
		{"roms zero procs", "roms", 0, 8, 8, "full", "-np 0"},
	}
	for _, tc := range cases {
		err := checkFlags(tc.app, tc.np, tc.nbin, tc.kpix, tc.subtype)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
