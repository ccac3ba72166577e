package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTransferTime(t *testing.T) {
	if got := TransferTime(100*MiB, MBps(100)); got != Second {
		t.Fatalf("100MiB at 100MB/s = %v, want 1s", got)
	}
	if got := TransferTime(0, MBps(10)); got != 0 {
		t.Fatalf("zero bytes = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth did not panic")
		}
	}()
	TransferTime(1, 0)
}

func TestBandwidthOfInvertsTransferTime(t *testing.T) {
	f := func(mb uint16, rate uint8) bool {
		size := (int64(mb) + 1) * MiB
		bw := MBps(float64(rate) + 1)
		d := TransferTime(size, bw)
		got := BandwidthOf(size, d)
		rel := (float64(got) - float64(bw)) / float64(bw)
		return rel < 1e-6 && rel > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthOfGuards(t *testing.T) {
	if BandwidthOf(100, 0) != 0 || BandwidthOf(0, Second) != 0 {
		t.Fatal("degenerate inputs not guarded")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		4 * GiB:    "4GB",
		32 * MiB:   "32MB",
		256 * KiB:  "256KB",
		10612080:   "10612080B",
		6 * GiB:    "6GB",
		1536 * MiB: "1536MB",
		KiB:        "1KB",
		1:          "1B",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatal("Seconds conversion broken")
	}
	if (1500 * Millisecond).String() != "1.500000s" {
		t.Fatalf("string = %q", (1500 * Millisecond).String())
	}
}

func TestBandwidthString(t *testing.T) {
	if got := MBps(112).String(); got != "112.00 MB/s" {
		t.Fatalf("string = %q", got)
	}
	if MBps(112).MBpsValue() != 112 {
		t.Fatal("MBpsValue round trip")
	}
}

func TestParseSize(t *testing.T) {
	for in, want := range map[string]int64{
		"4096": 4096, "256k": 256 * KiB, " 32M ": 32 * MiB, "2g": 2 * GiB, "-1g": -GiB,
		"8589934591g":         8589934591 * GiB, // the largest g count that fits
		"9223372036854775807": math.MaxInt64,
	} {
		if got, err := ParseSize(in); got != want || err != nil {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{
		"12x", "", "k",
		"18014398509481985k", // 2^64 + 1024 bytes, which wraps to 1024
		"8589934592g", "-8589934593g", "9223372036854775808",
	} {
		if got, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an error", in, got)
		}
	}
}
