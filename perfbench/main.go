// Command perfbench is the repository's end-to-end benchmark. It drives one
// closed-loop workload per invocation through the program's public
// functions and prints, as the last line of standard output, one JSON object
// with the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
//
//	perfbench -workload select-cold -seed 1 -seconds 25 -trace 0
//
// Each workload gives one group of layers most of the work (see DESIGN.md
// beside this file), runs many ops from one cost class, and checks every
// op's output against a reference taken in setup. Run it through run.sh,
// which builds it against the enclosing checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one set of inputs and the op the benchmark times over them.
type workload interface {
	// op runs op i of the workload's stream and checks its output; a
	// wrong output, an error or a tripped guard is returned as an error.
	op(i int) error
	// tracedOp runs op i with spans around the calls into each layer,
	// then the stand-alone layer probes, accumulating into t.
	tracedOp(i int, t *tracing) error
	// tracedOps is the fixed number of ops the traced segment runs, so the
	// program's counters repeat exactly from run to run.
	tracedOps() int
	// input names the input op i runs on, for the per-input summary.
	input(i int) string
	close()
}

// setupFunc builds a workload's inputs under dir from the seed.
type setupFunc func(seed int64, dir string, st *setupStats) (workload, error)

// workloadDef is a workload's setup, the percentile its tail_ms reports and
// which ops its end-to-end figures score.
type workloadDef struct {
	setup setupFunc
	// tailPerMille is fixed per workload, so a change that moves the op
	// count of a run never changes which percentile is compared: p90 where
	// a run holds hundreds of ops (it needs 100 for ten samples beyond it,
	// so a host window several times slower still leaves enough), p99
	// where it holds thousands.
	tailPerMille int
	// stealByWindow says how the figures leave out the CPU time the
	// hypervisor gives other guests (steal; see DESIGN.md). Set, the
	// workload scores only the ops of its least-stolen windows (see
	// window): its ops take a few milliseconds or less, hundreds to a
	// window, and a stolen slice turns the op it freezes into one of the
	// slowest. Unset, each op's share of the steal during it is taken out
	// of its time: its ops take tens of milliseconds, one or two to a
	// window, and a stolen slice lengthens each of them a little.
	stealByWindow bool
}

var workloads = map[string]workloadDef{
	"select-cold": {newSelectCold, 900, false},
	"whatif-fast": {newWhatifFast, 990, true},
	"extract-bin": {newExtractBin, 900, false},
	"serve-hit":   {newServeHit, 990, true},
}

// overtime is how far past -seconds the timed loop may run to reach the op
// count its tail percentile needs. Only a host far slower than usual uses
// it; the summary line says when a run did.
const overtime = 30 * time.Second

// workdir, relative to the checkout root the benchmark runs from, holds the
// generated traces while a run lasts and the span dumps after it.
const workdir = ".bench_build/work"

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow setup does not move it.
const setupRepeats = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 10, "length of the timed loop in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced segment and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(*name, def, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure sets the workload up setupRepeats times, then runs the timed loop
// (and, when traced, the traced segment) on the last setup.
func measure(name string, def workloadDef, seed int64, d time.Duration, traced bool, stdout io.Writer) (*result, error) {
	root := filepath.Join(workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	cal := newCalibrator()
	var w workload
	var setups []time.Duration
	stats := &setupStats{}
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(root, "setup"+strconv.Itoa(k))
		if err := os.RemoveAll(filepath.Join(root, "setup"+strconv.Itoa(k-1))); err != nil {
			return nil, err
		}
		cal.block()
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		stats.next()
		start := time.Now()
		var err error
		if w, err = def.setup(seed, dir, stats); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start))
	}
	defer w.close()
	setupS := median(sortedMillis(setups)) / 1000
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(stdout, "peak_rss_mib includes set-up: %v\n", err)
	}

	if !traced {
		lp := timedLoop(w, d, minOps(def.tailPerMille), !def.stealByWindow, cal)
		fmt.Fprintf(stdout, "%s seed %d: %d ops in %.2fs, setup %.3fs (median of %d), host slowdown %.3f, cpu steal %.1f%%\n",
			name, seed, len(lp.lat), lp.wall.Seconds(), setupS, setupRepeats, cal.slowdown(), 100*lp.steal)
		if lp.overtime {
			fmt.Fprintf(stdout, "the loop ran past %v to reach %d ops\n", d, minOps(def.tailPerMille))
		}
		printInputs(stdout, w, lp.lat)
		return lp.endToEnd(stdout, setupS, def, cal.slowdown())
	}

	// The traced run first repeats the untraced loop for half the time —
	// the baseline for the tracing overhead and the window for the Go
	// runtime counters — then runs the fixed traced segment.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lp := timedLoop(w, d/2, 0, false, cal)
	runtime.ReadMemStats(&m1)
	if lp.failed > 0 {
		return nil, lp.firstErr
	}
	t, err := tracedLoop(w)
	if err != nil {
		return nil, err
	}
	if err := t.rec.write(filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, err
	}
	metrics := t.perLayer(lp, &m0, &m1, stats)
	correct := true
	for _, g := range tracedGuards[name] {
		if got := metrics[g.metric].Value; got != g.want {
			fmt.Fprintf(stdout, "guard tripped: %s = %v, want %v\n", g.metric, got, g.want)
			correct = false
		}
	}
	fmt.Fprintf(stdout, "%s seed %d: traced %d ops, tracing overhead %.3f ms/op, host slowdown %.3f\n",
		name, seed, t.ops, metrics["tracing.overhead_ms"].Value, cal.slowdown())
	return &result{Correct: correct, Attempted: t.ops, Failed: 0, Metrics: metrics}, nil
}

// resetPeakRSS returns setup's garbage to the OS and resets the kernel's
// peak-RSS mark (VmHWM), so the peak the timed loop reports is the loop's
// own and not that of setup, which traces and simulates. The collection
// also keeps setup's garbage from being collected inside the timed loop.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// loop is the outcome of one closed-loop run.
type loop struct {
	lat      []time.Duration // per op, less its share of steal when the loop takes it out
	windows  []window
	wall     time.Duration // the loop's wall time less its calibration blocks and the steal taken out
	stolen   time.Duration // the steal taken out of the ops' times
	peakRSS  float64       // MiB, read as the loop ends
	steal    float64       // share of the machine's CPU time the hypervisor took
	overtime bool          // the loop ran past d to reach its op count
	failed   int
	firstErr error
}

// statTick is the unit of the CPU times in /proc/stat (USER_HZ, which is
// 100 on Linux).
const statTick = 10 * time.Millisecond

// window is the stretch of a timed loop between two calibration blocks,
// about calibEvery long, with the steal the kernel counted in it. A window
// with no tick of steal lost less than one tick.
type window struct {
	first, end int // the window's ops are lat[first:end]
	wall       time.Duration
	steal      int64 // statTicks, summed over the machine's processors
}

// timedLoop runs ops back to back — the next op starts when the previous
// returns — until d has passed and at least need ops have run (but no
// longer than overtime past d), with a calibration block every calibEvery.
// With takeSteal it reads the machine's steal around every op and takes the
// op's share out of its time: the steal over the op divided by the
// processors, which is what an op spread over all of them loses.
func timedLoop(w workload, d time.Duration, need int, takeSteal bool, cal *calibrator) loop {
	var lp loop
	// Latencies go into fixed-size blocks, so the benchmark's own memory
	// grows with the op count smoothly instead of doubling at powers of two.
	var blocks [][]time.Duration
	cpu0, steal0 := cpuTimes()
	procs := time.Duration(processors())
	spent0 := cal.spent
	start := time.Now()
	win, winStart, winSteal := window{}, start, steal0
	closeWindow := func(end int) {
		_, s := cpuTimes()
		win.end, win.wall, win.steal = end, time.Since(winStart), s-winSteal
		lp.windows = append(lp.windows, win)
	}
	for i := 0; ; i++ {
		if el := time.Since(start); el >= d {
			if i >= need || el >= d+overtime {
				closeWindow(i)
				break
			}
			lp.overtime = true
		}
		var s0 int64
		if takeSteal {
			_, s0 = cpuTimes()
		}
		t0 := time.Now()
		err := w.op(i)
		dt := time.Since(t0)
		if takeSteal {
			_, s1 := cpuTimes()
			stolen := min(time.Duration(s1-s0)*statTick/procs, dt)
			dt -= stolen
			lp.stolen += stolen
		}
		if len(blocks) == 0 || len(blocks[len(blocks)-1]) == cap(blocks[len(blocks)-1]) {
			blocks = append(blocks, make([]time.Duration, 0, 1<<14))
		}
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], dt)
		if err != nil {
			lp.failed++
			if lp.firstErr == nil {
				lp.firstErr = fmt.Errorf("op %d: %w", i, err)
			}
		}
		if time.Since(winStart) >= calibEvery {
			closeWindow(i + 1)
			cal.block()
			_, winSteal = cpuTimes()
			win, winStart = window{first: i + 1}, time.Now()
		}
	}
	lp.wall = time.Since(start) - (cal.spent - spent0) - lp.stolen
	lp.peakRSS = peakRSSMiB()
	cpu1, steal1 := cpuTimes()
	lp.steal = ratio(float64(steal1-steal0), float64(cpu1-cpu0))
	for _, b := range blocks {
		lp.lat = append(lp.lat, b...)
	}
	return lp
}

// leastStolen returns the ops of the loop's least-stolen windows and their
// wall time: the windows whose steal is at most the smallest limit that
// gives them need ops between them. On a quiet host the limit is 0.
func (lp loop) leastStolen(need int) (lat []time.Duration, wall time.Duration, limit int64) {
	bySteal := append([]window(nil), lp.windows...)
	sort.Slice(bySteal, func(i, j int) bool { return bySteal[i].steal < bySteal[j].steal })
	n := 0
	for _, w := range bySteal {
		if n >= need && w.steal > limit {
			break
		}
		limit = w.steal
		n += w.end - w.first
	}
	for _, w := range lp.windows {
		if w.steal <= limit {
			lat = append(lat, lp.lat[w.first:w.end]...)
			wall += w.wall
		}
	}
	return lat, wall, limit
}

// endToEnd scores a loop: the five metrics every workload reports. Times
// are scaled to reference speed by the run's host slowdown (see
// calibrate.go); the summary prints them unscaled as well.
func (lp loop) endToEnd(stdout io.Writer, setupS float64, def workloadDef, slowdown float64) (*result, error) {
	need := minOps(def.tailPerMille)
	lat, wall := lp.lat, lp.wall
	if def.stealByWindow {
		var limit int64
		lat, wall, limit = lp.leastStolen(need)
		fmt.Fprintf(stdout, "scored %d ops from the windows with at most %d ticks of steal\n", len(lat), limit)
	} else {
		fmt.Fprintf(stdout, "took %.3f ms of steal out of each op on average\n",
			float64(lp.stolen)/float64(time.Millisecond)/float64(len(lp.lat)))
	}
	pct := strconv.FormatFloat(float64(def.tailPerMille)/10, 'f', -1, 64)
	if len(lat) < need {
		return nil, fmt.Errorf("%d scored ops leave fewer than %d samples beyond p%s; raise -seconds",
			len(lat), minBeyond, pct)
	}
	ms := sortedMillis(lat)
	tl := tailAt(ms, def.tailPerMille)
	opMS, opsPerS := median(ms), opsPerSecond(len(lat), wall)
	fmt.Fprintf(stdout, "op_ms = p50 of %d ops; tail_ms = p%s with %d samples beyond it\n", len(ms), pct, tl.beyond)
	fmt.Fprintf(stdout, "unscaled percentiles: p75 %.4f, p90 %.4f, p95 %.4f, p98 %.4f, p99 %.4f, max %.4f\n",
		percentile(ms, 750), percentile(ms, 900), percentile(ms, 950), percentile(ms, 980), percentile(ms, 990), ms[len(ms)-1])
	fmt.Fprintf(stdout, "unscaled: op_ms %.4f, tail_ms %.4f, ops_per_s %.4f, setup_s %.4f\n",
		opMS, tl.value, opsPerS, setupS)
	res := &result{
		Correct:   lp.failed == 0,
		Attempted: len(lp.lat),
		Failed:    lp.failed,
		Metrics: map[string]metric{
			"op_ms":        {opMS / slowdown, "ms"},
			"tail_ms":      {tl.value / slowdown, "ms"},
			"ops_per_s":    {opsPerS * slowdown, "1/s"},
			"setup_s":      {setupS / slowdown, "s"},
			"peak_rss_mib": {lp.peakRSS, "MiB"},
		},
	}
	if lp.firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", lp.firstErr)
	}
	return res, nil
}

// printInputs prints the median latency per input, so a workload whose
// inputs drift into different cost classes shows it.
func printInputs(stdout io.Writer, w workload, lat []time.Duration) {
	byInput := map[string][]time.Duration{}
	var names []string
	for i, d := range lat {
		name := w.input(i)
		if _, ok := byInput[name]; !ok {
			names = append(names, name)
		}
		byInput[name] = append(byInput[name], d)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "  %-40s %6d ops, median %.3f ms\n", name, len(byInput[name]), median(sortedMillis(byInput[name])))
	}
}

// cpuTimes reads the machine's aggregate CPU time (/proc/stat, in ticks)
// and the part of it the hypervisor gave to other guests (steal). A run
// taken while steal is high measured a slower machine; the summary line
// reports it so such runs can be recognised.
func cpuTimes() (total, steal int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so it is not added again.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// processors counts the processors whose times /proc/stat sums in its first
// line.
func processors() int {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, line := range strings.Split(string(raw), "\n") {
		if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return max(n, 1)
}

// peakRSSMiB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
