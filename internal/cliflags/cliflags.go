// Package cliflags is the flag wiring shared by cmd/activesim and
// cmd/sansweep: output paths (metrics, traces, pprof profiles), the
// fault-injection plan, the collective topology selector, the
// -handler-src HDL handler loader, and the telemetry/flight-recorder
// switches. Both commands declare the same flags with the same
// semantics; this package keeps them from drifting and gives their values
// one validated Setup path with helpful errors instead of two copies of the
// boilerplate.
package cliflags

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"activesan/internal/cluster"
	"activesan/internal/collective"
	"activesan/internal/fault"
	"activesan/internal/hdl"
	"activesan/internal/metrics"
	"activesan/internal/prof"
	"activesan/internal/sim"
	"activesan/internal/telemetry"
)

// Common holds the flag values shared by the commands.
type Common struct {
	// Trace is activesim's -trace path, a plain-text event trace. The
	// command declares that flag itself; Setup installs it like -trace-out.
	Trace      string
	TraceOut   string
	TraceLimit int
	MetricsOut string
	CPUProfile string
	MemProfile string
	Faults     string
	FaultSeed  uint64
	Topology   string
	Partitions int
	Collective string
	AggBudget  int
	HandlerSrc string
	Telemetry  bool
	FlightRec  string

	// FR is the armed flight recorder (nil unless -flight-recorder was
	// given). RunProtected feeds recovered panics into it; cleanup writes
	// its dump when it triggered.
	FR *telemetry.FlightRecorder
}

// Register declares the shared flags on the default flag set. Call before
// flag.Parse.
func Register() *Common {
	c := &Common{}
	flag.StringVar(&c.TraceOut, "trace-out", "",
		"write a Chrome trace-event / Perfetto JSON trace to this file")
	flag.IntVar(&c.TraceLimit, "tracelimit", 200000, "maximum trace lines/events")
	flag.StringVar(&c.MetricsOut, "metrics-out", "",
		"write secondary-metric snapshots as JSON to this file")
	flag.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	flag.StringVar(&c.Faults, "faults", "",
		"arm the fault plan in this JSON file on every simulated cluster (see RELIABILITY.md)")
	flag.Uint64Var(&c.FaultSeed, "fault-seed", 0, "override the fault plan's PRNG seed (requires -faults)")
	flag.StringVar(&c.Topology, "topology", "tree",
		"collective topology: tree (the paper's reduction tree), fattree, or fattree:K (see TOPOLOGIES.md)")
	flag.IntVar(&c.Partitions, "partitions", 1,
		"simulation partitions per cluster: 1 = serial engine, 0 = auto from topology size, N = exactly N; results are byte-identical at any value (see PERFORMANCE.md)")
	flag.StringVar(&c.Collective, "collective", "allreduce",
		"collective op for the collsweep experiment and -sweep collective: allreduce, barrier, scatter, gather, or keyagg (see COLLECTIVES.md)")
	flag.IntVar(&c.AggBudget, "agg-budget", 0,
		"per-switch key-table budget (entries) for keyagg collectives; 0 = the library default, smaller budgets spill to the host (see COLLECTIVES.md)")
	flag.StringVar(&c.HandlerSrc, "handler-src", "",
		"compile this HDL handler source file and add it to the hdlsweep experiment (see HANDLERS.md)")
	flag.BoolVar(&c.Telemetry, "telemetry", false,
		"stamp every packet with per-hop telemetry and fold latency histograms into metrics (see OBSERVABILITY.md)")
	flag.StringVar(&c.FlightRec, "flight-recorder", "",
		"keep a per-component ring of recent trace events; dump to this file on a crash or -strict-routes violation")
	return c
}

// parseTopology validates a -topology value, returning the kind and the
// fat-tree arity override (0 = pick the smallest fit).
func parseTopology(v string) (kind string, k int, err error) {
	switch {
	case v == "" || v == "tree":
		return "tree", 0, nil
	case v == "fattree":
		return "fattree", 0, nil
	case strings.HasPrefix(v, "fattree:"):
		k, err := strconv.Atoi(v[len("fattree:"):])
		if err != nil || k < 2 || k%2 != 0 {
			return "", 0, fmt.Errorf("fattree arity %q must be an even integer >= 2", v[len("fattree:"):])
		}
		return "fattree", k, nil
	default:
		return "", 0, fmt.Errorf("unknown topology %q (want tree, fattree, or fattree:K)", v)
	}
}

// Setup validates the parsed values and installs their process-wide effects:
// the default fault plan, profiling, telemetry, the flight recorder, and the
// Chrome trace sink. The returned cleanup (never nil) flushes the trace
// file, writes the flight-recorder dump if it triggered, and stops the
// profilers; defer it from main. RunProtected runs cleanup even when the
// simulation panics, so -trace-out/-metrics-out are never left truncated.
// Errors name the flag at fault.
func (c *Common) Setup() (cleanup func(), err error) {
	noop := func() {}
	if c.FaultSeed != 0 && c.Faults == "" {
		return noop, fmt.Errorf("-fault-seed has no effect without -faults")
	}
	if c.Trace != "" && c.TraceOut != "" {
		return noop, fmt.Errorf("-trace and -trace-out share the trace hook; pick one")
	}
	kind, k, err := parseTopology(c.Topology)
	if err != nil {
		return noop, fmt.Errorf("-topology: %w", err)
	}
	cluster.SetDefaultTopology(kind, k)
	if c.Partitions < 0 {
		return noop, fmt.Errorf("-partitions: count %d must be >= 0 (0 = auto)", c.Partitions)
	}
	cluster.SetDefaultPartitions(c.Partitions)
	op, err := collective.ParseOp(c.Collective)
	if err != nil {
		return noop, fmt.Errorf("-collective: %w", err)
	}
	collective.SetDefaultOp(op)
	if c.AggBudget < 0 {
		return noop, fmt.Errorf("-agg-budget: %d must be >= 0 (0 = default)", c.AggBudget)
	}
	if c.AggBudget > 0 {
		collective.SetDefaultBudget(c.AggBudget)
	}
	if c.Faults != "" {
		plan, err := fault.Load(c.Faults)
		if err != nil {
			return noop, fmt.Errorf("-faults: %w", err)
		}
		fault.SetDefault(plan, c.FaultSeed)
	}
	if c.HandlerSrc != "" {
		src, err := os.ReadFile(c.HandlerSrc)
		if err != nil {
			return noop, fmt.Errorf("-handler-src: %w", err)
		}
		compiled, err := hdl.Compile(string(src))
		if err != nil {
			return noop, fmt.Errorf("-handler-src: %w", err)
		}
		hdl.SetExtra(compiled)
	}
	if c.MetricsOut != "" {
		// Fail on an unwritable directory now, not after the simulation.
		if err := EnsureParent(c.MetricsOut); err != nil {
			return noop, fmt.Errorf("-metrics-out: %w", err)
		}
	}
	telemetry.SetDefault(c.Telemetry)
	if c.FlightRec != "" {
		if err := EnsureParent(c.FlightRec); err != nil {
			return noop, fmt.Errorf("-flight-recorder: %w", err)
		}
		c.FR = telemetry.NewFlightRecorder(0)
	}
	stopProf := prof.Start(c.CPUProfile, c.MemProfile)

	var w *metrics.ChromeTraceWriter
	if c.TraceOut != "" {
		if err := EnsureParent(c.TraceOut); err != nil {
			stopProf()
			return noop, fmt.Errorf("-trace-out: %w", err)
		}
		f, err := os.Create(c.TraceOut)
		if err != nil {
			stopProf()
			return noop, fmt.Errorf("-trace-out: %w", err)
		}
		// The writer locks internally, so -parallel engines share it.
		w = metrics.NewChromeTraceWriter(f, int64(c.TraceLimit))
		if c.Telemetry {
			// Per-hop spans ride the same Perfetto file as the event trace.
			telemetry.SetDefaultSpanWriter(w)
		}
	}

	// The trace sink: the flight recorder tees in front of the Chrome or
	// plain-text writer (or records alone when there is neither).
	var next sim.TraceSink
	closeText := func() {}
	switch {
	case w != nil:
		next = w.Sink()
	case c.Trace != "":
		f, err := os.Create(c.Trace)
		if err != nil {
			stopProf()
			return noop, fmt.Errorf("-trace: %w", err)
		}
		// "<time> comp: detail" lines, at most TraceLimit of them; the
		// mutex lets -parallel engines share the file.
		tw := bufio.NewWriter(f)
		var mu sync.Mutex
		lines := 0
		next = func(ev sim.TraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			if lines < c.TraceLimit {
				lines++
				fmt.Fprintf(tw, "%-14v %s\n", ev.At, ev.String())
			}
		}
		closeText = func() {
			if err := tw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}
	switch {
	case c.FR != nil:
		sim.SetDefaultTraceSink(c.FR.Sink(next))
	case next != nil:
		sim.SetDefaultTraceSink(next)
	}

	out, frOut, fr := c.TraceOut, c.FlightRec, c.FR
	return func() {
		if fr != nil && fr.Triggered() {
			if err := os.WriteFile(frOut, []byte(fr.Dump()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote flight-recorder dump to %s\n", frOut)
			}
		}
		closeText()
		if w != nil {
			if err := w.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			} else {
				fmt.Printf("wrote %s (%d events)\n", out, w.Events())
			}
		}
		stopProf()
	}, nil
}

// RunProtected executes body, converting a panic — a fault-plan crash
// surfacing under -strict-routes, an invariant failure — into exit code 1
// after arming the flight recorder with the panic message. The caller's
// deferred cleanup then still runs (trace close, flight dump, metrics
// write), so output files are complete even on a crashed run.
func (c *Common) RunProtected(body func() int) (code int) {
	defer func() {
		if r := recover(); r != nil {
			if c.FR != nil {
				c.FR.Trigger(fmt.Sprintf("panic: %v", r))
			}
			fmt.Fprintf(os.Stderr, "crash: %v\n", r)
			code = 1
		}
	}()
	return body()
}

// EnsureParent creates the directory a file path will be written into.
func EnsureParent(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		return os.MkdirAll(dir, 0o755)
	}
	return nil
}
