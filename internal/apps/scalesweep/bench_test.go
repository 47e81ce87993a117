package scalesweep

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"activesan/internal/apps/reduce"
	"activesan/internal/aswitch"
	"activesan/internal/cluster"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// The partition-engine benchmarks compare the same fat-tree collective
// through the serial engine and the partitioned Group. Cluster construction
// and teardown sit outside the timer; `run-ns/op` (reported via
// b.ReportMetric and tracked in BENCH_engine.json) is the Engine.Run /
// Group.Run call alone, with the partitions' windows running concurrently
// on the cores GOMAXPROCS allows. BenchmarkExchangeSpeedup256 reports the
// measured serial/partitioned wall-clock ratio next to the deterministic
// event parallelism; TestPartitionParallelismFloor gates the latter.
func benchPoint(b *testing.B, hosts, parts int) {
	prm := DefaultParams().Reduce
	var run []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
		// Collect outside the timed region so the previous iteration's
		// garbage is not swept inside this one's run.
		runtime.GC()
		b.StartTimer()
		r := reduce.RunOn(c.Eng, c, reduce.ToOne, true, hosts, prm)
		b.StopTimer()
		if !r.Correct {
			b.Fatalf("incorrect reduction at %d hosts, %d partitions", hosts, parts)
		}
		run = append(run, r.EngineWall)
		b.StartTimer()
	}
	// Medians, not means: one descheduled run would otherwise skew the
	// recorded baseline the timing gate compares against.
	b.ReportMetric(float64(medianDur(run).Nanoseconds()), "run-ns/op")
}

func BenchmarkReduce256Serial(b *testing.B)  { benchPoint(b, 256, 1) }
func BenchmarkReduce256Parts4(b *testing.B)  { benchPoint(b, 256, 4) }
func BenchmarkReduce1024Serial(b *testing.B) { benchPoint(b, 1024, 1) }
func BenchmarkReduce1024Parts8(b *testing.B) { benchPoint(b, 1024, 8) }

// exchangeRun is one neighbor-exchange run's outcome: the Engine/Group Run
// wall clock, the end time, and for a partitioned run the Group's
// deterministic event counts.
type exchangeRun struct {
	wall            time.Duration
	end             sim.Time
	evTotal, evCrit int64
}

// runExchange drives a bulk-synchronous neighbor exchange: every host sends
// a 4 KB message each round, to its edge-switch neighbor (i XOR 1) on most
// rounds and across the fabric (i + hosts/2) every sixteenth — the
// mostly-partition-local traffic pattern the pod-boundary cut is designed
// for, with enough cross-cut flow to keep the lookahead machinery honest.
//
// The tree is k=16, not the minimal k=12 DefaultFatTreeConfig would pick:
// 256 hosts fill exactly four 64-host pods, so at 4 partitions each rank
// owns one full pod and the per-round load is balanced. On the minimal
// tree the hosts span 7.1 pods and one rank ends up with 40 hosts against
// the others' 72, which caps the event parallelism near 2.9 for reasons
// that have nothing to do with the engine.
func runExchange(hosts, k, parts int) exchangeRun {
	cfg := cluster.DefaultFatTreeConfig(hosts)
	if k > 0 {
		cfg.K = k
		cfg.Switch = aswitch.DefaultConfig(k)
	}
	c := cluster.NewPartitionedFatTreeCluster(cfg, parts)
	defer c.Shutdown()
	c.Start()
	const rounds = 32
	// Flow ids start at 1: the NIC replaces flow 0 with a fresh id, which
	// would leave the partner's RecvFlow waiting forever.
	flow := func(r, i int) int64 { return int64(r*hosts+i) + 1 }
	// received[i] counts host i's completed RecvFlows; each host writes only
	// its own slot, so partitions running in parallel never share one.
	received := make([]int, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		h := c.Host(i)
		c.EngineFor(h.ID()).Spawn(fmt.Sprintf("ex%d", i), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				partner := i ^ 1
				if r%16 == 15 {
					partner = (i + hosts/2) % hosts
				}
				h.SendMessage(p, &san.Message{
					Hdr:  san.Header{Dst: c.Host(partner).ID(), Type: san.Data, Flow: flow(r, i)},
					Size: 4 << 10,
				}, 0)
				h.RecvFlow(p, c.Host(partner).ID(), flow(r, partner))
				received[i]++
			}
		})
	}
	var x exchangeRun
	z := time.Now()
	x.end = c.Run()
	x.wall = time.Since(z)
	for i, n := range received {
		if n != rounds {
			panic(fmt.Sprintf("exchange incomplete: host %d received %d of %d flows", i, n, rounds))
		}
	}
	if c.Group != nil {
		x.evTotal, x.evCrit = c.Group.EventsTotal(), c.Group.EventsCritical()
	}
	return x
}

func benchExchange(b *testing.B, hosts, k, parts int) {
	var runs []time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		x := runExchange(hosts, k, parts)
		b.StopTimer()
		runs = append(runs, x.wall)
		b.StartTimer()
	}
	b.ReportMetric(float64(medianDur(runs).Nanoseconds()), "run-ns/op")
}

func BenchmarkExchange256Serial(b *testing.B) { benchExchange(b, 256, 16, 1) }
func BenchmarkExchange256Parts4(b *testing.B) { benchExchange(b, 256, 16, 4) }

// BenchmarkExchangeSpeedup256 reports two figures for the 256-host exchange
// at 4 partitions:
//
//   - wall-speedup-x: serial Run wall clock over the 4-partition Run wall
//     clock, measured on the cores GOMAXPROCS allows (set it with -cpu),
//     median of b.N back-to-back pairs.
//   - parallelism-x: EventsTotal/EventsCritical, the event parallelism the
//     workload offers. It is a pure function of the workload, so it is the
//     noise-free bound a machine with one core per partition approaches.
func BenchmarkExchangeSpeedup256(b *testing.B) {
	var ratios []float64
	var par float64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		s := runExchange(256, 16, 1)
		runtime.GC()
		p := runExchange(256, 16, 4)
		ratios = append(ratios, float64(s.wall)/float64(p.wall))
		par = float64(p.evTotal) / float64(p.evCrit)
	}
	slices.Sort(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "wall-speedup-x")
	b.ReportMetric(par, "parallelism-x")
}

// TestExchangeIdentity guards the benchmark's apples-to-apples claim: the
// exchange workload must simulate the identical event stream serially and
// partitioned, or the serial/partitioned comparison above is comparing two
// different runs.
func TestExchangeIdentity(t *testing.T) {
	serial := runExchange(256, 16, 1)
	part := runExchange(256, 16, 4)
	if serial.end != part.end {
		t.Fatalf("exchange end time diverged: serial %v, 4 partitions %v", serial.end, part.end)
	}
}

// medianDur returns the median of ds (sorting it in place): simulation
// timing on shared runners is noisy, so benchmarks report the median of
// several reps.
func medianDur(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// TestPartitionParallelismFloor gates the partitioned engine's event
// parallelism, EventsTotal/EventsCritical: the events a run fires over the
// events on its per-round critical path. Both counts are deterministic, so
// the floors hold on any machine. A round that serializes the ranks drops
// both ratios toward 1; a horizon collapsing to micro-steps trips the
// reduce's micro-step gate.
func TestPartitionParallelismFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-host fat tree")
	}
	const hosts, parts = 1024, 8
	c := cluster.NewPartitionedFatTreeCluster(cluster.DefaultFatTreeConfig(hosts), parts)
	if r := reduce.RunOn(c.Eng, c, reduce.ToOne, true, hosts, DefaultParams().Reduce); !r.Correct {
		t.Fatal("incorrect partitioned reduction")
	}
	g := c.Group
	par := float64(g.EventsTotal()) / float64(g.EventsCritical())
	t.Logf("reduce %d hosts/%d partitions: %d/%d events = %.2f parallelism, %d rounds, %d micro-steps",
		hosts, parts, g.EventsTotal(), g.EventsCritical(), par, g.Rounds(), g.MicroSteps())
	if par < 7 {
		t.Errorf("reduce parallelism %.2f below the floor of 7 (measured 7.51)", par)
	}
	if g.MicroSteps() != 0 {
		t.Errorf("reduce took %d micro-steps, want 0", g.MicroSteps())
	}

	x := runExchange(256, 16, 4)
	par = float64(x.evTotal) / float64(x.evCrit)
	t.Logf("exchange 256 hosts/4 partitions: %d/%d events = %.2f parallelism", x.evTotal, x.evCrit, par)
	if par < 3.9 {
		t.Errorf("exchange parallelism %.2f below the floor of 3.9 (measured 4.00)", par)
	}
}
