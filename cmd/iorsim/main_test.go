package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestCapacityExceededExitsOne pins that more processes than the
// configuration holds are refused before any simulation runs, with the
// same wording iotrace uses, instead of panicking in cluster placement.
func TestCapacityExceededExitsOne(t *testing.T) {
	code, stdout, stderr := runCLI("-np", "17")
	const want = "iorsim: 17 processes exceed configA capacity (16)\n"
	if code != 1 || stderr != want || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr %q", code, stdout, stderr, want)
	}
}

// TestFlagErrors pins the exit codes of the other refusals: a value the
// simulation cannot run exits 1, a flag that does not parse exits 2.
func TestFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-config", "nope"}, 1, `iorsim: unknown configuration "nope"`},
		{[]string{"-b", "12x"}, 1, "iorsim: -b:"},
		// 2^64 + 1024 bytes: refused, not wrapped to b=1KB.
		{[]string{"-b", "18014398509481985k", "-t", "1k", "-np", "1", "-r=false"}, 1, `iorsim: -b: size "18014398509481985k" overflows int64`},
		{[]string{"-np", "0"}, 1, "iorsim: "},
		// b·np = 2^64: the file extent overflows int64.
		{[]string{"-b", "4611686018427387904", "-t", "4611686018427387904", "-r=false"}, 1, "iorsim: ior: file extent b=4611686018427387904 × np=4 × s=1 overflows int64"},
		// One step past each per-pass cap, which would simulate for
		// minutes to days.
		{[]string{"-b", "262145m", "-t", "1m", "-r=false"}, 1, "iorsim: ior: pass volume b=274878955520 × np=4 × s=1 exceeds MaxPassBytes (1099511627776)"},
		{[]string{"-b", "4194308k", "-t", "4k", "-r=false"}, 1, "iorsim: ior: pass transfers b/t=1048577 × np=4 × s=1 exceed MaxPassTransfers (4194304)"},
		{[]string{"-frobnicate"}, 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		code, stdout, stderr := runCLI(tc.args...)
		if code != tc.code || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit %d, stderr containing %q",
				tc.args, code, stdout, stderr, tc.code, tc.want)
		}
	}
}

// TestFullCapacityRuns pins that the capacity check is not off by one:
// exactly as many processes as the configuration holds still run.
func TestFullCapacityRuns(t *testing.T) {
	code, stdout, stderr := runCLI("-np", "16", "-b", "1m", "-t", "256k", "-r=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "IOR on configA: np=16 ") || !strings.Contains(stdout, "\nwrite: ") {
		t.Errorf("unexpected output:\n%s", stdout)
	}
}
