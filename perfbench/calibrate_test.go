package main

import "testing"

// The calibration block turns collection off; a kernel that allocated would
// grow the heap while it is off and hand the program a collection later.
func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	k := newKernel()
	if n := testing.AllocsPerRun(5, k.run); n != 0 {
		t.Errorf("kernel run allocates %v times per run, want 0", n)
	}
}

func TestCalibrationBlockTimesEveryRound(t *testing.T) {
	c := newCalibrator()
	c.block()
	if len(c.samples) != calibBlock {
		t.Fatalf("%d samples from one block, want %d", len(c.samples), calibBlock)
	}
	for i, d := range c.samples {
		if d <= 0 {
			t.Errorf("sample %d = %v", i, d)
		}
	}
	if c.spent < c.samples[0] || c.slowdown() <= 0 {
		t.Errorf("spent %v, slowdown %v", c.spent, c.slowdown())
	}
}
