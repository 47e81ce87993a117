package san

// Property tests for the settle-phase crossbar arbiter: every packet that
// reaches a switch at one identical instant must be serviced in input-port
// index order, whatever order the arrival events happened to be inserted
// in. The suite drives random same-instant arrival sets at a single switch
// and checks the two halves of the guarantee separately: the service order
// is the input-port order, and it is invariant under permutation of the
// arrival insertions. Cut-through head latency is size-independent, so all
// heads sent at t=0 arrive — and finish their routing step — at the same
// instant regardless of payload size.

import (
	"testing"

	"activesan/internal/sim"
)

// settleRand is a seedable splitmix64 stream, independent of math/rand so
// the generated arrival sets are stable across Go releases.
type settleRand struct{ s uint64 }

func (r *settleRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *settleRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *settleRand) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// injectSrc is the Src marker for the switch-sourced packet in a burst; the
// switch itself is NodeID(100) in the star fixture.
const injectSrc = 100

// burstOrder runs one synchronized burst through an n-port star: for each
// entry of srcs — a permutation of distinct input ports — one packet of the
// paired size is sent at t=0 toward port dst, so every head finishes its
// routing step at the identical instant. With inject set, the switch itself
// sources one packet at exactly that instant through Inject (the crossbar's
// (N+1)th input). The returned slice is the source order in which the
// destination received the packets — the switch's service order.
func burstOrder(t *testing.T, n, dst int, srcs []int, sizes []int64, inject bool) []int {
	t.Helper()
	eng := sim.NewEngine()
	sw, eps := star(eng, n)
	sw.Start()
	for k, src := range srcs {
		src, size := src, sizes[k]
		eng.Spawn("tx", func(p *sim.Proc) {
			eps[src].Out.Send(p, &Packet{Hdr: Header{Src: NodeID(src), Dst: NodeID(dst)}, Size: size})
		})
	}
	want := len(srcs)
	if inject {
		want++
		admitAt := sim.TransferTime(HeaderBytes, 1e9) + DefaultLinkConfig().Propagation + sw.Config().RoutingLatency
		eng.Spawn("inj", func(p *sim.Proc) {
			p.SleepUntil(admitAt)
			if err := sw.Inject(p, &Packet{Hdr: Header{Src: injectSrc, Dst: NodeID(dst)}, Size: 64}); err != nil {
				t.Errorf("inject: %v", err)
			}
		})
	}
	var order []int
	eng.Spawn("rx", func(p *sim.Proc) {
		for len(order) < want {
			pkt := eps[dst].Rx.Get(p)
			order = append(order, int(pkt.Hdr.Src))
			eps[dst].In.ReturnCredit()
		}
	})
	eng.Run()
	eng.Shutdown()
	return order
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSettleServiceOrderIsPortOrder: for random same-instant arrival sets —
// random port subsets in random insertion order, random payload sizes, with
// and without a same-instant switch injection — the service order is the
// ascending input-port order, with the injected packet (pseudo-port N)
// always last.
func TestSettleServiceOrderIsPortOrder(t *testing.T) {
	r := &settleRand{s: 0x5e771e01}
	for round := 0; round < 40; round++ {
		n := 4 + r.intn(5) // 4..8 ports
		dst := r.intn(n)
		var pool []int
		for i := 0; i < n; i++ {
			if i != dst {
				pool = append(pool, i)
			}
		}
		r.shuffle(pool)
		srcs := pool[:2+r.intn(len(pool)-1)]
		sizes := make([]int64, len(srcs))
		for i := range sizes {
			sizes[i] = int64(64 + r.intn(int(MTU)-64))
		}
		inject := r.intn(2) == 1

		want := append([]int(nil), srcs...)
		for i := 1; i < len(want); i++ { // insertion sort: the expected order
			for j := i; j > 0 && want[j-1] > want[j]; j-- {
				want[j-1], want[j] = want[j], want[j-1]
			}
		}
		if inject {
			want = append(want, injectSrc)
		}
		got := burstOrder(t, n, dst, srcs, sizes, inject)
		if !intsEqual(got, want) {
			t.Fatalf("round %d (n=%d dst=%d arrivals=%v inject=%v): service order %v, want port order %v",
				round, n, dst, srcs, inject, got, want)
		}
	}
}

// TestSettleOrderInvariantUnderPermutation: the full service order of one
// fixed same-instant arrival set must not change when the arrival events
// are inserted in a different order. Sizes travel with their port, so every
// permutation describes the same physical burst.
func TestSettleOrderInvariantUnderPermutation(t *testing.T) {
	r := &settleRand{s: 0x5e771e02}
	const n, dst = 8, 3
	base := []int{0, 1, 2, 4, 5, 6, 7}
	sizeOf := map[int]int64{}
	for _, src := range base {
		sizeOf[src] = int64(64 + r.intn(int(MTU)-64))
	}
	perms := [][]int{append([]int(nil), base...)}
	rev := make([]int, len(base))
	for i, s := range base {
		rev[len(base)-1-i] = s
	}
	perms = append(perms, rev)
	for k := 0; k < 6; k++ {
		p := append([]int(nil), base...)
		r.shuffle(p)
		perms = append(perms, p)
	}
	var want []int
	for pi, perm := range perms {
		sizes := make([]int64, len(perm))
		for i, src := range perm {
			sizes[i] = sizeOf[src]
		}
		got := burstOrder(t, n, dst, perm, sizes, true)
		if pi == 0 {
			want = got
			continue
		}
		if !intsEqual(got, want) {
			t.Fatalf("insertion order %v: service order %v, but insertion order %v gave %v",
				perm, got, perms[0], want)
		}
	}
}
