// Package monitor samples per-device activity counters at fixed virtual
// time intervals — the simulator's `iostat -x -p 1`. Figure 8 of the paper
// plots exactly this: sectors per second and bandwidth per disk of an I/O
// node while MADBench2's phases execute.
package monitor

import (
	"iophases/internal/des"
	"iophases/internal/disksim"
	"iophases/internal/units"
)

// Sample is one snapshot of every watched device's cumulative counters.
type Sample struct {
	Time     units.Duration
	Counters []disksim.Counters // parallel to the watched device list
}

// Monitor periodically snapshots devices until stopped.
type Monitor struct {
	eng      *des.Engine
	devices  []disksim.Device
	names    []string
	interval units.Duration
	samples  []Sample
	stopped  bool
}

// Start begins sampling the devices every interval on eng. Call Stop when
// the observed workload finishes; otherwise the monitor keeps the
// simulation alive forever.
func Start(eng *des.Engine, devices []disksim.Device, interval units.Duration) *Monitor {
	if interval <= 0 {
		panic("monitor: non-positive interval")
	}
	m := &Monitor{eng: eng, devices: devices, interval: interval}
	for _, d := range devices {
		m.names = append(m.names, d.Name())
	}
	m.snapshot() // t=0 baseline
	m.schedule()
	return m
}

func (m *Monitor) schedule() {
	m.eng.Schedule(m.interval, func() {
		if m.stopped {
			return
		}
		m.snapshot()
		m.schedule()
	})
}

func (m *Monitor) snapshot() {
	s := Sample{Time: m.eng.Now()}
	for _, d := range m.devices {
		s.Counters = append(s.Counters, d.Counters())
	}
	m.samples = append(m.samples, s)
}

// Stop halts sampling after taking a final snapshot.
func (m *Monitor) Stop() {
	if m.stopped {
		return
	}
	m.snapshot()
	m.stopped = true
}

// Names reports the watched device names.
func (m *Monitor) Names() []string { return m.names }

// Samples reports the collected snapshots.
func (m *Monitor) Samples() []Sample { return m.samples }

// Rate is per-interval activity derived from consecutive samples.
type Rate struct {
	Time        units.Duration // interval end
	SectorsRead []float64      // per device, sectors/s
	SectorsWrit []float64
	ReadBW      []units.Bandwidth
	WriteBW     []units.Bandwidth
	Utilization []float64 // busy fraction of the interval, 0..1
}

// Rates converts cumulative samples into per-second rates, the form
// Figure 8 plots.
func (m *Monitor) Rates() []Rate {
	var out []Rate
	for i := 1; i < len(m.samples); i++ {
		prev, cur := m.samples[i-1], m.samples[i]
		dt := (cur.Time - prev.Time).Seconds()
		if dt <= 0 {
			continue
		}
		r := Rate{Time: cur.Time}
		for d := range m.devices {
			a, b := prev.Counters[d], cur.Counters[d]
			r.SectorsRead = append(r.SectorsRead, float64(b.SectorsRead()-a.SectorsRead())/dt)
			r.SectorsWrit = append(r.SectorsWrit, float64(b.SectorsWritten()-a.SectorsWritten())/dt)
			r.ReadBW = append(r.ReadBW, units.Bandwidth(float64(b.ReadBytes-a.ReadBytes)/dt))
			r.WriteBW = append(r.WriteBW, units.Bandwidth(float64(b.WriteBytes-a.WriteBytes)/dt))
			util := (b.BusyTime - a.BusyTime).Seconds() / dt
			if util > 1 {
				util = 1
			}
			r.Utilization = append(r.Utilization, util)
		}
		out = append(out, r)
	}
	return out
}
