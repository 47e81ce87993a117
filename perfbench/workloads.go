package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"activesan"
	"activesan/internal/apps/psort"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/exp"
	"activesan/internal/metrics"
	"activesan/internal/san"
	"activesan/internal/sim"
	"activesan/internal/stats"
)

type invokeFunc func(b *bench) *outcome

// workload is one named set of inputs and the invocation that runs them.
type workload struct {
	name string
	// setups is how many standalone set-ups (the workload's cluster
	// constructors and Start) a run times for setup_s.
	setups  int
	prepare func(seed int64, root string) (*inputs, error)
	setup   func(b *bench) setupSample
	invoke  invokeFunc
	// reference, when set, runs the same inputs in another simulation
	// layout; every result must match it byte for byte.
	reference invokeFunc
}

// inputs are what the generator derived from the seed, plus the reference
// data results are checked against.
type inputs struct {
	golden      []byte   // fig13: the golden result file
	counts      []int64  // fig13: per-host record counts (oracle)
	sums        []uint64 // fig13: per-host key sums (oracle)
	crossFabric []int    // exchange: partner of each host on cross-fabric rounds
}

// counters are the deterministic counts of one invocation: engine
// bookkeeping and simulated work, summed over the invocation's clusters.
// They repeat exactly for a given workload and seed.
type counters struct {
	Events, Rounds, MicroSteps, EventsTotal, EventsCritical    int64
	PacketsSwitched, MaxQueueDepth, NICPacketsOut, Retransmits int64
	Invocations, CacheAccesses, CacheMisses                    int64
}

// outcome is one invocation's measurements and verification.
type outcome struct {
	layout                     string
	wall, run, collect, render time.Duration
	allocMB, peakRSSMB         float64
	counts                     counters
	digest                     []byte // SHA-256 of the rendered result JSON
	checks, failed             int
	errors                     []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.checks++
	if !ok {
		o.failed++
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

// setupSample is one standalone set-up of a workload's clusters.
type setupSample struct {
	build, start, collect time.Duration
	buildAllocMB          float64
	procs, goroutines     int
}

var workloads = []*workload{
	{
		// The paper's Figure 13 at the golden scale: four configs on one
		// active switch with 4 hosts and 4 stores. Proc handoffs, the
		// switch/NIC/link pipeline, the psort handler and the host CPU and
		// cache models dominate; cluster build is under 0.1%.
		name:    "fig13-sort",
		setups:  51,
		prepare: prepareFig13,
		setup:   setupFig13,
		invoke:  invokeFig13,
	},
	{
		// Network-only bulk-synchronous exchange on a 256-host k=16 fat
		// tree, serial engine: the fabric and event-dispatch workload. Its
		// reference runs the same inputs over two partitions on two cores,
		// the only layout through the partition barrier.
		name:      "exchange-ft256",
		setups:    9,
		prepare:   prepareExchange,
		setup:     setupExchange,
		invoke:    invokeExchange(1),
		reference: invokeExchange(2),
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// timeSetup builds and starts n clusters with build, timing the
// constructor and Start of each, then shuts them down.
func timeSetup(b *bench, n int, ctor string, build func() *cluster.Cluster, collect bool) setupSample {
	b.rec.inv++
	root := b.rec.begin("setup " + b.w.name)
	var s setupSample
	g0 := runtime.NumGoroutine()
	var built []*cluster.Cluster
	for i := 0; i < n; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var c *cluster.Cluster
		s.build += b.rec.time(ctor, func() { c = build() })
		runtime.ReadMemStats(&m1)
		s.buildAllocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		s.start += b.rec.time("Cluster.Start", c.Start)
		s.procs += liveProcs(c)
		if collect {
			s.collect += b.rec.time("metrics.Collect", func() { metrics.Collect(c, 0) })
		}
		built = append(built, c)
	}
	s.goroutines = runtime.NumGoroutine() - g0
	for _, c := range built {
		b.rec.time("Cluster.Shutdown", c.Shutdown)
	}
	b.rec.end(root)
	return s
}

func liveProcs(c *cluster.Cluster) int {
	if c.Group == nil {
		return c.Eng.LiveProcs()
	}
	n := 0
	for i := 0; i < c.Group.Len(); i++ {
		n += c.Group.Engine(i).LiveProcs()
	}
	return n
}

// render encodes results the way activesim -json and the markdown report
// do, and records the JSON's digest.
func render(b *bench, o *outcome, results []*stats.Result) []byte {
	var js []byte
	var err error
	var md string
	o.render = b.rec.time("activesan.ResultJSON", func() { js, err = activesan.ResultJSON(results) })
	o.render += b.rec.time("activesan.MarkdownReport", func() { md = activesan.MarkdownReport(b.w.name, 1, results) })
	o.check(err == nil, "ResultJSON: %v", err)
	o.check(strings.Contains(md, results[0].ID), "markdown report lacks %s", results[0].ID)
	sum := sha256.Sum256(js)
	o.digest = sum[:]
	return js
}

// addCounts adds one metrics snapshot's simulated work counts to c.
func addCounts(c *counters, s *metrics.Snapshot) {
	for name, v := range s.Values {
		n := int64(v)
		parts := strings.Split(name, "/")
		last := parts[len(parts)-1]
		switch {
		case len(parts) == 2 && (last == "routed" || last == "local"):
			c.PacketsSwitched += n
		case len(parts) == 2 && last == "max_queue_depth":
			c.MaxQueueDepth = max(c.MaxQueueDepth, n)
		case strings.HasSuffix(name, "/nic/packets_out"):
			c.NICPacketsOut += n
		case strings.HasSuffix(name, "/retry/retransmits"):
			c.Retransmits += n
		case strings.HasSuffix(name, "/active/invocations"):
			c.Invocations += n
		case len(parts) >= 3 && isCacheLevel(parts[len(parts)-2]) && last == "accesses":
			c.CacheAccesses += n
		case len(parts) >= 3 && isCacheLevel(parts[len(parts)-2]) && last == "misses":
			c.CacheMisses += n
		}
	}
}

func isCacheLevel(s string) bool { return s == "l1i" || s == "l1d" || s == "l2" }

// addEngineCounts adds the engine's event counts: the serial engine's, or
// the partition group's totals and barrier statistics.
func addEngineCounts(c *counters, cl *cluster.Cluster) {
	if cl.Group == nil {
		c.Events += cl.Eng.Events()
		return
	}
	g := cl.Group
	c.Events += g.EventsTotal()
	c.Rounds += g.Rounds()
	c.MicroSteps += g.MicroSteps()
	c.EventsTotal += g.EventsTotal()
	c.EventsCritical += g.EventsCritical()
}

// --- fig13-sort ---

// fig13Scale is the golden problem-size divisor.
const fig13Scale = 64

func prepareFig13(_ int64, root string) (*inputs, error) {
	golden, err := os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", "golden", "fig13.json"))
	if err != nil {
		return nil, err
	}
	// The registry's sizing of fig13 at fig13Scale.
	prm := psort.DefaultParams()
	prm.Records = max(prm.Records/fig13Scale, 32<<10)
	counts, sums := prm.Oracle()
	return &inputs{golden: golden, counts: counts, sums: sums}, nil
}

// fig13Cluster is the cluster each of fig13's four configs builds.
func fig13Cluster() *cluster.Cluster {
	prm := psort.DefaultParams()
	cfg := cluster.DefaultIOClusterConfig()
	cfg.Hosts = prm.Hosts
	cfg.Stores = prm.Hosts
	cfg.Switch = aswitch.DefaultConfig(2 * prm.Hosts)
	return cluster.NewIOCluster(sim.NewEngine(), cfg)
}

func setupFig13(b *bench) setupSample {
	return timeSetup(b, 4, "cluster.NewIOCluster", fig13Cluster, true)
}

func invokeFig13(b *bench) *outcome {
	o := &outcome{layout: "fig13"}
	e, ok := exp.ByID("fig13")
	if !ok {
		o.check(false, "no fig13 in the experiment registry")
		return o
	}
	var res *stats.Result
	o.run = b.rec.time("exp.fig13 (psort.RunAll)", func() { res = e.Run(fig13Scale) })
	verifyFig13(b, o, res)
	return o
}

// verifyFig13 renders res and checks it against the golden file and each
// config's received records against the oracle.
func verifyFig13(b *bench, o *outcome, res *stats.Result) {
	js := render(b, o, []*stats.Result{res})
	o.check(string(js)+"\n" == string(b.in.golden), "fig13 result differs from internal/exp/testdata/golden/fig13.json")
	o.check(len(res.Runs) == 4, "fig13 has %d configs, want 4", len(res.Runs))
	for _, run := range res.Runs {
		counts, _ := run.Extra["counts"].([]int64)
		sums, _ := run.Extra["sums"].([]uint64)
		o.check(slices.Equal(counts, b.in.counts) && slices.Equal(sums, b.in.sums),
			"fig13 %s: received records %v / key sums %v, oracle %v / %v", run.Config, counts, sums, b.in.counts, b.in.sums)
		if run.Metrics != nil {
			addCounts(&o.counts, run.Metrics)
		}
	}
}

// --- exchange-ft256 ---

const (
	exHosts  = 256
	exK      = 16
	exRounds = 32
	exBytes  = 4 << 10
)

// prepareExchange draws the cross-fabric partner matching: host i in the
// lower half pairs with a seed-chosen host in the upper half, so every
// cross-fabric round crosses the pod boundary (and, at two partitions,
// the partition cut) as a perfect matching.
func prepareExchange(seed int64, _ string) (*inputs, error) {
	half := exHosts / 2
	perm := rand.New(rand.NewSource(seed)).Perm(half)
	cross := make([]int, exHosts)
	for i, j := range perm {
		cross[i] = half + j
		cross[half+j] = i
	}
	return &inputs{crossFabric: cross}, nil
}

// exchangeConfig is a k=16 fat tree: 256 hosts fill exactly four pods, so
// two partitions own two pods each.
func exchangeConfig() cluster.FatTreeConfig {
	cfg := cluster.DefaultFatTreeConfig(exHosts)
	cfg.K = exK
	cfg.Switch = aswitch.DefaultConfig(exK)
	return cfg
}

func layoutName(parts int) string {
	if parts == 1 {
		return "serial"
	}
	return fmt.Sprintf("%d partitions", parts)
}

func exchangeCtor(parts int) (string, func() *cluster.Cluster) {
	if parts == 1 {
		return "cluster.NewFatTreeCluster", func() *cluster.Cluster {
			return cluster.NewFatTreeCluster(sim.NewEngine(), exchangeConfig())
		}
	}
	return "cluster.NewPartitionedFatTreeCluster", func() *cluster.Cluster {
		return cluster.NewPartitionedFatTreeCluster(exchangeConfig(), parts)
	}
}

func exFlow(round, sender int) int64 { return int64(round*exHosts+sender) + 1 }

func setupExchange(b *bench) setupSample {
	name, build := exchangeCtor(1)
	return timeSetup(b, 1, name, build, false)
}

// invokeExchange runs the bulk-synchronous exchange: each round every host
// sends 4 KiB to its partner and receives its partner's message. The
// partner is the edge-switch neighbour (i XOR 1), except every sixteenth
// round, when it is the seed's cross-fabric partner. Flow ids start at 1:
// the NIC replaces flow 0 with a fresh id, which the receiver could not
// name.
func invokeExchange(parts int) invokeFunc {
	ctor, build := exchangeCtor(parts)
	return func(b *bench) *outcome {
		// One core per partition: the run's GOMAXPROCS is 1.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(parts, runtime.NumCPU())))
		o := &outcome{layout: layoutName(parts)}
		var c *cluster.Cluster
		b.rec.time(ctor, func() { c = build() })
		b.rec.time("Cluster.Start", c.Start)
		done := make([]int, exHosts)
		for i := 0; i < exHosts; i++ {
			i := i
			h := c.Host(i)
			c.EngineFor(h.ID()).Spawn(fmt.Sprintf("ex%d", i), func(p *sim.Proc) {
				for r := 0; r < exRounds; r++ {
					partner := i ^ 1
					if r%16 == 15 {
						partner = b.in.crossFabric[i]
					}
					dst := c.Host(partner).ID()
					h.SendMessage(p, &san.Message{
						Hdr:  san.Header{Dst: dst, Type: san.Data, Flow: exFlow(r, i)},
						Size: exBytes,
					}, 0)
					if comp := h.RecvFlow(p, dst, exFlow(r, partner)); comp.Size == exBytes {
						done[i]++
					}
				}
			})
		}
		var end sim.Time
		o.run = b.rec.time("Cluster.Run", func() { end = c.Run() })
		var snap *metrics.Snapshot
		o.collect = b.rec.time("metrics.Collect", func() { snap = metrics.Collect(c, end) })
		addCounts(&o.counts, snap)
		addEngineCounts(&o.counts, c)
		var traffic int64
		for _, h := range c.Hosts {
			traffic += h.Traffic()
		}
		b.rec.time("Cluster.Shutdown", c.Shutdown)
		verifyExchange(b, o, end, traffic, snap, done)
		return o
	}
}

// verifyExchange renders the exchange's result and checks that every host
// completed every round and that NIC bytes balance.
func verifyExchange(b *bench, o *outcome, end sim.Time, traffic int64, snap *metrics.Snapshot, done []int) {
	render(b, o, []*stats.Result{{
		ID:    "exchange-ft256",
		Title: "Bulk-synchronous 4 KiB neighbour exchange on a 256-host fat tree",
		Runs:  []stats.Run{{Config: "exchange", Time: end, Hosts: exHosts, Traffic: traffic, Metrics: snap}},
	}})
	incomplete := 0
	for _, n := range done {
		if n != exRounds {
			incomplete++
		}
	}
	o.check(incomplete == 0, "%d hosts did not complete all %d rounds", incomplete, exRounds)
	var in, out float64
	for name, v := range snap.Values {
		switch {
		case strings.HasSuffix(name, "/nic/bytes_in"):
			in += v
		case strings.HasSuffix(name, "/nic/bytes_out"):
			out += v
		}
	}
	want := float64(exHosts * exRounds * exBytes)
	o.check(in == want && out == want, "NIC bytes in %v, out %v, want %v each", in, out, want)
}
