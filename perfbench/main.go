// Command perfbench is the simulator's end-to-end benchmark. It runs one
// named workload as a closed loop of whole invocations, one at a time, in
// this process, verifies every result, and prints one JSON line:
//
//	perfbench --workload exchange-ft256 --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end host times and memory of an
// invocation (medians over the run). With --trace 1 the run is split into
// an untraced half and a traced half, and the metrics are per layer: span
// times around the calls into each package, CPU-profile self time bucketed
// by package, and the deterministic counters of the simulated work. All
// times are host wall-clock; simulated statistics are only checked.
//
// Run it through run.sh from the repository root, which builds it first.
// README.md lists the workloads and which layer each metric belongs to.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 20, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	w := workloadByName(*workload)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <n> --trace <0|1>\n", workloadNames())
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	if r := os.Getenv("PERFBENCH_ROOT"); r != "" {
		root = r
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = filepath.Join(root, ".bench_build", "perfbench")
	}
	// The serial engine runs one goroutine at a time; on one P its handoffs
	// stay on one thread instead of waking a second one. The partitioned
	// layout raises this for its own invocations.
	runtime.GOMAXPROCS(1)

	b, err := newBench(w, *seed, root)
	if err != nil {
		fail(err)
	}
	res, err := b.run(time.Duration(*seconds)*time.Second, *trace == 1, out)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line. Attempted and Failed count
// verification checks; Failed/Attempted is the run's failed fraction.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// FailedFrac is the share of verification checks that failed.
func (r *result) FailedFrac() float64 { return float64(r.Failed) / float64(r.Attempted) }

// bench is one run of one workload.
type bench struct {
	w   *workload
	in  *inputs
	rec recorder

	checks, failed int
	// first holds each layout's first invocation, against which later
	// invocations' deterministic counters and result digests are checked.
	first map[string]*outcome
	// ref is the workload's inputs run in the reference layout; the
	// workload's own results must match its rendered result byte for byte.
	ref *outcome
}

func newBench(w *workload, seed int64, root string) (*bench, error) {
	in, err := w.prepare(seed, root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return &bench{w: w, in: in, first: map[string]*outcome{}}, nil
}

// run measures for d: standalone set-ups first, then whole invocations
// until d has passed. traced splits the invocations into an untraced and
// a traced half and returns per-layer metrics instead of end-to-end ones.
func (b *bench) run(d time.Duration, traced bool, out string) (*result, error) {
	deadline := time.Now().Add(d)
	var setups []setupSample
	for i := 0; i < b.w.setups; i++ {
		freeMemory()
		setups = append(setups, b.w.setup(b))
	}
	if b.w.reference != nil {
		b.ref = b.invoke(b.w.reference, "")
	}
	if !traced {
		var outs []*outcome
		for len(outs) < 3 || time.Now().Before(deadline) {
			outs = append(outs, b.invoke(b.w.invoke, ""))
		}
		return b.endToEnd(setups, outs), nil
	}

	// Untraced half. A workload with a partitioned reference alternates it
	// in, so the serial/partitioned wall-clock ratio is measured, not
	// projected.
	mid := time.Now().Add(time.Until(deadline) / 2)
	var plain, refs []*outcome
	for len(plain) < 2 || time.Now().Before(mid) {
		plain = append(plain, b.invoke(b.w.invoke, ""))
		if b.w.reference != nil {
			refs = append(refs, b.invoke(b.w.reference, ""))
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	var tracedOuts []*outcome
	var profiles []string
	for len(tracedOuts) < 2 || time.Now().Before(deadline) {
		prof := filepath.Join(out, fmt.Sprintf("%s-cpu%d.pprof", b.w.name, len(profiles)))
		profiles = append(profiles, prof)
		tracedOuts = append(tracedOuts, b.invoke(b.w.invoke, prof))
	}
	buckets, unattributed, err := bucketProfiles(profiles)
	if err != nil {
		return nil, err
	}
	if err := b.rec.writeChrome(filepath.Join(out, b.w.name+"-trace.json")); err != nil {
		return nil, err
	}
	return b.perLayer(setups, plain, refs, tracedOuts, buckets, unattributed), nil
}

// invoke runs one whole invocation with the heap collected beforehand,
// measures its allocation and peak RSS, optionally under a CPU profile
// written to prof, and checks its deterministic counters against the
// layout's first invocation.
func (b *bench) invoke(fn invokeFunc, prof string) *outcome {
	freeMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var f *os.File
	if prof != "" {
		var err error
		if f, err = os.Create(prof); err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
	}
	b.rec.inv++
	id := b.rec.begin("invocation " + b.w.name)
	t0 := time.Now()
	o := fn(b)
	o.wall = time.Since(t0)
	b.rec.end(id)
	if f != nil {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	runtime.ReadMemStats(&m1)
	o.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	o.peakRSSMB = peakRSS() / 1e6

	if first := b.first[o.layout]; first == nil {
		b.first[o.layout] = o
	} else {
		o.check(o.counts == first.counts, "deterministic counters differ from the first invocation: %+v vs %+v", o.counts, first.counts)
		o.check(bytes.Equal(o.digest, first.digest), "rendered result differs from the first invocation")
	}
	if b.ref != nil && o.layout != b.ref.layout {
		o.check(bytes.Equal(o.digest, b.ref.digest), "result differs from the %s layout for the same seed", b.ref.layout)
	}
	for _, msg := range o.errors {
		fmt.Fprintf(os.Stderr, "%s: verification failed: %s\n", b.w.name, msg)
	}
	b.checks += o.checks
	b.failed += o.failed
	return o
}

func (b *bench) newResult() *result {
	return &result{
		Correct:   b.failed == 0,
		Attempted: b.checks,
		Failed:    b.failed,
		Metrics:   map[string]value{},
	}
}

func set(r *result, defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: unknown metric " + name)
}

func (b *bench) endToEnd(setups []setupSample, outs []*outcome) *result {
	r := b.newResult()
	set(r, endToEnd, "wall_s", median(outs, func(o *outcome) float64 { return o.wall.Seconds() }))
	set(r, endToEnd, "setup_s", median(setups, func(s setupSample) float64 { return (s.build + s.start).Seconds() }))
	set(r, endToEnd, "run_s", median(outs, func(o *outcome) float64 { return o.run.Seconds() }))
	set(r, endToEnd, "alloc_mb", median(outs, func(o *outcome) float64 { return o.allocMB }))
	set(r, endToEnd, "peak_rss_mb", median(outs, func(o *outcome) float64 { return o.peakRSSMB }))
	return r
}

func (b *bench) perLayer(setups []setupSample, plain, refs, traced []*outcome, buckets map[string]float64, unattributed float64) *result {
	r := b.newResult()
	put := func(name string, v float64) { set(r, perLayer, name, v) }
	per := func(total float64, count int64) float64 {
		if count == 0 {
			return 0
		}
		return total * 1e9 / float64(count)
	}
	put("cluster.build_s", median(setups, func(s setupSample) float64 { return s.build.Seconds() }))
	put("cluster.start_s", median(setups, func(s setupSample) float64 { return s.start.Seconds() }))
	put("cluster.build_alloc_mb", median(setups, func(s setupSample) float64 { return s.buildAllocMB }))
	put("sim.procs", median(setups, func(s setupSample) float64 { return float64(s.procs) }))
	put("sim.goroutines", median(setups, func(s setupSample) float64 { return float64(s.goroutines) }))

	c := traced[0].counts
	runS := median(plain, func(o *outcome) float64 { return o.run.Seconds() })
	put("sim.events", float64(c.Events))
	put("sim.ns_per_event", per(runS, c.Events))
	// The partition barrier runs only in the partitioned reference layout.
	var g counters
	if b.ref != nil {
		g = b.ref.counts
	}
	put("group.rounds", float64(g.Rounds))
	put("group.microsteps", float64(g.MicroSteps))
	put("group.events_total", float64(g.EventsTotal))
	put("group.events_critical", float64(g.EventsCritical))
	parallelism := 0.0
	if g.EventsCritical > 0 {
		parallelism = float64(g.EventsTotal) / float64(g.EventsCritical)
	}
	put("group.parallelism", parallelism)
	speedup := 0.0
	if len(refs) > 0 {
		speedup = runS / median(refs, func(o *outcome) float64 { return o.run.Seconds() })
	}
	put("group.wall_speedup", speedup)

	n := float64(len(traced))
	for _, m := range hostModules {
		put("host."+m+"_s", buckets[m]/n)
	}
	put("host.unattributed_frac", unattributed)
	put("san.packets_switched", float64(c.PacketsSwitched))
	put("san.max_queue_depth", float64(c.MaxQueueDepth))
	put("nic.packets_out", float64(c.NICPacketsOut))
	put("nic.retransmits", float64(c.Retransmits))
	put("aswitch.invocations", float64(c.Invocations))
	put("cache.accesses", float64(c.CacheAccesses))
	put("cache.misses", float64(c.CacheMisses))
	put("san.ns_per_packet", per(buckets["san"]/n, c.PacketsSwitched))
	put("nic.ns_per_packet", per(buckets["nic"]/n, c.NICPacketsOut))
	put("aswitch.ns_per_invocation", per(buckets["aswitch"]/n, c.Invocations))
	put("cache.ns_per_access", per(buckets["cache"]/n, c.CacheAccesses))

	collect := median(traced, func(o *outcome) float64 { return o.collect.Seconds() })
	if collect == 0 {
		// The entry point collects internally (fig13-sort): time
		// metrics.Collect on the set-up clusters instead.
		collect = median(setups, func(s setupSample) float64 { return s.collect.Seconds() })
	}
	put("report.collect_s", collect)
	put("report.render_s", median(traced, func(o *outcome) float64 { return o.render.Seconds() }))
	wall := func(o *outcome) float64 { return o.wall.Seconds() }
	put("trace_overhead_s", median(traced, wall)-median(plain, wall))
	return r
}

func median[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// freeMemory collects the previous invocation's garbage and returns it to
// the OS, so each invocation starts from the same heap and its peak RSS is
// its own.
func freeMemory() { debug.FreeOSMemory() }

// resetPeakRSS sets the kernel's peak-RSS mark to the current RSS. Where
// that is not permitted the mark, and so peak_rss_mb, covers the process
// lifetime so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fail(err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if f := bytes.Fields(line); len(f) >= 2 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				fail(err)
			}
			return kb * 1024
		}
	}
	fail(errors.New("no VmHWM in /proc/self/status"))
	return 0
}
