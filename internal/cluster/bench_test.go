package cluster

import (
	"testing"

	"activesan/internal/aswitch"
	"activesan/internal/sim"
)

// benchFatTreeBuild times what a run pays before its first event: the fat
// tree's constructor (switches, links, hosts, route tables), Start, and the
// Shutdown that unwinds it. allocs/op and B/op are gated against
// BENCH_engine.json, so a return to per-entry route maps or eagerly
// allocated host caches fails CI.
func benchFatTreeBuild(b *testing.B, hosts, k int) {
	cfg := DefaultFatTreeConfig(hosts)
	cfg.K = k
	cfg.Switch = aswitch.DefaultConfig(k)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewFatTreeCluster(sim.NewEngine(), cfg)
		c.Start()
		c.Shutdown()
	}
}

// BenchmarkFatTreeBuild256 is the exchange benchmark's fabric: 256 hosts
// filling four pods of a k=16 fat tree.
func BenchmarkFatTreeBuild256(b *testing.B) { benchFatTreeBuild(b, 256, 16) }

// BenchmarkFatTreeBuild1024 is the full k=16 fat tree, the 1024-host
// collective point.
func BenchmarkFatTreeBuild1024(b *testing.B) { benchFatTreeBuild(b, 1024, 16) }
