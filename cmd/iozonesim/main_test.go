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

// TestFlagErrors pins the refusals: a value the simulation cannot run
// exits 1 with one diagnostic and no output, before anything is
// simulated, and a flag that does not parse exits 2.
func TestFlagErrors(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-config", "nope"}, 1, `iozonesim: unknown configuration "nope"`},
		{[]string{"-s", "12x"}, 1, "iozonesim: -s:"},
		{[]string{"-y", "18014398509481985k"}, 1, `iozonesim: -y: size "18014398509481985k" overflows int64`},
		{[]string{"-s", "1g", "-y", "3"}, 1, "iozonesim: iozone: file size 1073741824 not a multiple of request 3"},
		{[]string{"-pattern", "strided", "-stride", "1"}, 1, "iozonesim: iozone: strided needs StrideCount >= 2"},
		// -peak checks the sizes PeakOfConfig would run: a zero request
		// would divide by zero, and a negative file would be raised to
		// the cache rule's size and measured.
		{[]string{"-peak", "-y", "0"}, 1, "iozonesim: iozone: s=2147483648 y=0"},
		{[]string{"-peak", "-s", "-1g"}, 1, "iozonesim: iozone: s=-1073741824 y=8388608"},
		// 2^31 one-byte requests, whose offsets alone take 16 GiB.
		{[]string{"-peak", "-s", "2g", "-y", "1"}, 1, "iozonesim: iozone: s/y=2147483648 requests exceed MaxPassRequests (4194304)"},
		{[]string{"-s", "2g", "-y", "1"}, 1, "iozonesim: iozone: s/y=2147483648 requests exceed MaxPassRequests (4194304)"},
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

// TestRuns pins the two outputs on small valid sizes.
func TestRuns(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "configB", "-s", "64m", "-y", "8m", "-pattern", "sequential"}, "IOzone on configB devices"},
		{[]string{"-config", "configB", "-s", "64m", "-y", "8m", "-peak"}, "BW_PK(configB) over 3 I/O node(s): write "},
	} {
		code, stdout, stderr := runCLI(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 0 and %q", tc.args, code, stderr, stdout, tc.want)
		}
	}
}
