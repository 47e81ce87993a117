package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"activesan/internal/aswitch"
	"activesan/internal/cache"
	"activesan/internal/san"
	"activesan/internal/sim"
)

// routeTableDigest hashes every (switch, destination, primary, backup)
// tuple of a built cluster: switches in spec order, destinations as every
// host, store and switch id in ascending order (a switch's own id included,
// where both ports are -1).
func routeTableDigest(c *Cluster) uint64 {
	var dsts []san.NodeID
	for _, h := range c.Hosts {
		dsts = append(dsts, h.ID())
	}
	for _, s := range c.Stores {
		dsts = append(dsts, s.ID())
	}
	for _, sw := range c.Topo.Sw {
		dsts = append(dsts, sw.ID())
	}
	hash := fnv.New64a()
	var buf [32]byte
	for _, sw := range c.Topo.Sw {
		for _, dst := range dsts {
			binary.LittleEndian.PutUint64(buf[0:], uint64(sw.ID()))
			binary.LittleEndian.PutUint64(buf[8:], uint64(dst))
			binary.LittleEndian.PutUint64(buf[16:], uint64(int64(sw.Route(dst))))
			binary.LittleEndian.PutUint64(buf[24:], uint64(int64(sw.BackupRoute(dst))))
			hash.Write(buf[:])
		}
	}
	return hash.Sum64()
}

// TestFatTreeRouteTableDigest pins the full routing state of two fat trees
// — every primary and backup port, and so the BFS tie-break that picks them
// — so a slip in route installation fails here rather than only as a drift
// in some experiment's golden.
func TestFatTreeRouteTableDigest(t *testing.T) {
	cases := []struct {
		name       string
		k, hosts   int
		stores     int
		wantDigest uint64
	}{
		{"k4", 4, 12, 4, 0x586b6f89740f7f15},
		{"k16-256", 16, 256, 0, 0x44ee7445798a61d5},
	}
	for _, tc := range cases {
		cfg := DefaultFatTreeConfig(tc.hosts)
		cfg.K, cfg.Stores = tc.k, tc.stores
		cfg.Switch = aswitch.DefaultConfig(tc.k)
		c := NewFatTreeCluster(sim.NewEngine(), cfg)
		if got := routeTableDigest(c); got != tc.wantDigest {
			t.Errorf("%s: route table digest %#x, want %#x", tc.name, got, tc.wantDigest)
		}
		c.Shutdown()
	}
}

// TestNetworkOnlyRunLeavesCachesUnallocated: a message exchange touches
// host caches only through DMA invalidation, so after it no host cache has
// tag arrays — the build-time saving of first-touch allocation.
func TestNetworkOnlyRunLeavesCachesUnallocated(t *testing.T) {
	const hosts = 16
	c := NewFatTreeCluster(sim.NewEngine(), DefaultFatTreeConfig(hosts))
	defer c.Shutdown()
	c.Start()
	done := 0
	for i := 0; i < hosts; i++ {
		i := i
		h, peer := c.Host(i), c.Host(i^1)
		c.Eng.Spawn(fmt.Sprintf("ex%d", i), func(p *sim.Proc) {
			h.SendMessage(p, &san.Message{
				Hdr:  san.Header{Dst: peer.ID(), Type: san.Data, Flow: int64(i + 1)},
				Size: 4 << 10,
			}, 0)
			h.RecvFlow(p, peer.ID(), int64(i^1+1))
			done++
		})
	}
	c.Run()
	if done != hosts {
		t.Fatalf("%d of %d hosts finished the exchange", done, hosts)
	}
	for _, h := range c.Hosts {
		hier := h.CPU().Hier()
		for _, cc := range []*cache.Cache{hier.L1D(), hier.L1I(), hier.L2()} {
			if cc.Allocated() {
				t.Errorf("%s: %s has tag arrays after a network-only run", h.Name(), cc.Config().Name)
			}
		}
	}
}
