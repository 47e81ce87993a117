package main

// metricDef names one reported metric. The end-to-end table must match
// BENCHMARK.json's end_to_end list and the per-layer table its per_layer
// list, name for name and unit for unit; perfbench_test.go checks both.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the simulator waits for, in host time, per
// workload invocation (median over the invocations of one run).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},       // build + run + collect + verify + render
	{"setup_s", "s", "lower"},      // cluster constructors + Start, summed over the clusters built
	{"run_s", "s", "lower"},        // inside Cluster.Run / Engine.Run
	{"alloc_mb", "MB", "lower"},    // heap bytes allocated by the invocation
	{"peak_rss_mb", "MB", "lower"}, // peak resident memory during the invocation
}

// hostModules are the CPU-profile buckets reported as host.<module>_s. The
// first thirteen are the layers the benchmark is built around; host,
// report and other catch the remaining repo packages so the buckets sum to
// the profiled time less the unattributed share.
var hostModules = []string{
	"sim", "handoff", "san", "nic", "aswitch", "cpu", "cache", "memsys",
	"iodev", "cluster", "apps", "metrics", "gc", "host", "report", "other",
}

// perLayer is what the traced run reports. Counts marked deterministic are
// simulated work or engine bookkeeping: they repeat exactly for a given
// workload and seed, and a change that only speeds the simulator up must
// leave them identical.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cluster.build_s", "s", "lower"},
		{"cluster.start_s", "s", "lower"},
		{"cluster.build_alloc_mb", "MB", "lower"},
		{"sim.events", "count", "lower"}, // deterministic
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.procs", "count", "lower"},             // deterministic
		{"sim.goroutines", "count", "lower"},        // deterministic
		{"group.rounds", "count", "lower"},          // deterministic
		{"group.microsteps", "count", "lower"},      // deterministic
		{"group.events_total", "count", "lower"},    // deterministic
		{"group.events_critical", "count", "lower"}, // deterministic
		{"group.parallelism", "x", "higher"},        // deterministic
		{"group.wall_speedup", "x", "higher"},
	}
	for _, m := range hostModules {
		defs = append(defs, metricDef{"host." + m + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"host.unattributed_frac", "ratio", "lower"},
		metricDef{"san.packets_switched", "count", "lower"}, // deterministic
		metricDef{"san.max_queue_depth", "count", "lower"},  // deterministic
		metricDef{"nic.packets_out", "count", "lower"},      // deterministic
		metricDef{"nic.retransmits", "count", "lower"},      // deterministic
		metricDef{"aswitch.invocations", "count", "lower"},  // deterministic
		metricDef{"cache.accesses", "count", "lower"},       // deterministic
		metricDef{"cache.misses", "count", "lower"},         // deterministic
		metricDef{"san.ns_per_packet", "ns", "lower"},
		metricDef{"nic.ns_per_packet", "ns", "lower"},
		metricDef{"aswitch.ns_per_invocation", "ns", "lower"},
		metricDef{"cache.ns_per_access", "ns", "lower"},
		metricDef{"report.collect_s", "s", "lower"},
		metricDef{"report.render_s", "s", "lower"},
		metricDef{"trace_overhead_s", "s", "lower"},
	)
}()
