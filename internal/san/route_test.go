package san

import (
	"math"
	"math/rand"
	"testing"

	"activesan/internal/sim"
)

// routeSwitch is a bare 8-port switch for routing-table tests.
func routeSwitch() *Switch {
	return NewSwitch(sim.NewEngine(), 1<<20, "rt", DefaultSwitchConfig(8))
}

// checkRuns asserts the table's structural invariant: runs non-empty,
// sorted by base and disjoint.
func checkRuns(t *testing.T, rt *routeTable) {
	t.Helper()
	for i, r := range rt.runs {
		if len(r.ents) == 0 {
			t.Fatalf("run %d at %d is empty", i, r.base)
		}
		if i > 0 && rt.runs[i-1].end() > r.base {
			t.Fatalf("run %d [%d,%d) overlaps run %d ending at %d",
				i, r.base, r.end(), i-1, rt.runs[i-1].end())
		}
	}
}

func TestRouteUnsetIsNone(t *testing.T) {
	sw := routeSwitch()
	sw.SetRoute(5, 1)
	for _, id := range []NodeID{0, 1, 4, 6, -1, 1 << 20, math.MinInt, math.MaxInt} {
		if p, b := sw.Route(id), sw.BackupRoute(id); p != -1 || b != -1 {
			t.Errorf("unset id %d: route %d backup %d, want -1 -1", id, p, b)
		}
	}
	if p, re := sw.pickRoute(7); p != -1 || re {
		t.Errorf("pickRoute(unset) = %d %v, want -1 false", p, re)
	}
}

// TestRouteSparseIDs sets the id shapes the fabric tests use — 0 and 1,
// a block from 100, a block from 1<<20 — in a scrambled order and reads
// every one back, with the ids between the blocks unset.
func TestRouteSparseIDs(t *testing.T) {
	sw := routeSwitch()
	want := map[NodeID]int{0: 3, 1: 4}
	for i := 0; i < 40; i++ {
		want[NodeID(100+i)] = i % 8
		want[NodeID(1<<20+i)] = (i + 3) % 8
	}
	ids := make([]NodeID, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		sw.SetRoute(id, want[id])
	}
	checkRuns(t, &sw.routes)
	if n := len(sw.routes.runs); n > 3 {
		t.Errorf("%d runs for three id blocks", n)
	}
	for id, p := range want {
		if got := sw.Route(id); got != p {
			t.Errorf("Route(%d) = %d, want %d", id, got, p)
		}
		if got := sw.BackupRoute(id); got != -1 {
			t.Errorf("BackupRoute(%d) = %d, want -1", id, got)
		}
	}
	for _, id := range []NodeID{2, 99, 140, 1<<20 - 1, 1<<20 + 40} {
		if got := sw.Route(id); got != -1 {
			t.Errorf("Route(%d) = %d between blocks, want -1", id, got)
		}
	}
}

// TestRouteBackupWithoutPrimary: a backup alone is reported by BackupRoute,
// Route stays -1, and pickRoute uses it without counting a reroute.
func TestRouteBackupWithoutPrimary(t *testing.T) {
	sw := routeSwitch()
	sw.SetBackupRoute(9, 2)
	if p, b := sw.Route(9), sw.BackupRoute(9); p != -1 || b != 2 {
		t.Fatalf("route %d backup %d, want -1 2", p, b)
	}
	if p, re := sw.pickRoute(9); p != 2 || re {
		t.Errorf("pickRoute = %d %v, want 2 false", p, re)
	}
}

// TestRouteRerouteOnlyWhenPrimaryDown pins pickRoute: the primary while its
// link is up, the backup (counted as a reroute) while it is down, and the
// dead primary when the backup is down too.
func TestRouteRerouteOnlyWhenPrimaryDown(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewSwitch(eng, 1<<20, "rt", DefaultSwitchConfig(4))
	outs := make([]*Link, 4)
	for i := range outs {
		outs[i] = NewLink(eng, "out", DefaultLinkConfig())
		sw.AttachPort(i, NewLink(eng, "in", DefaultLinkConfig()), outs[i])
	}
	sw.SetRoute(7, 1)
	sw.SetBackupRoute(7, 3)
	if p, re := sw.pickRoute(7); p != 1 || re {
		t.Errorf("both up: %d %v, want 1 false", p, re)
	}
	outs[1].SetDown(true)
	if p, re := sw.pickRoute(7); p != 3 || !re {
		t.Errorf("primary down: %d %v, want 3 true", p, re)
	}
	outs[3].SetDown(true)
	if p, re := sw.pickRoute(7); p != 1 || re {
		t.Errorf("both down: %d %v, want 1 false", p, re)
	}
}

// TestRouteNonPositiveAndOutOfRunIDs: ids at or below zero and ids just
// past a run's ends are ordinary keys — set, read and missed without a
// panic or an out-of-range index.
func TestRouteNonPositiveAndOutOfRunIDs(t *testing.T) {
	sw := routeSwitch()
	sw.ReserveRoutes(10, 5)
	sw.SetRoute(-3, 6)
	sw.SetRoute(0, 5)
	sw.SetBackupRoute(math.MinInt, 4)
	sw.SetRoute(math.MaxInt, 7)
	checkRuns(t, &sw.routes)
	cases := map[NodeID]int{-3: 6, 0: 5, math.MaxInt: 7, math.MinInt: -1, -4: -1, -2: -1, 9: -1, 10: -1, 14: -1, 15: -1}
	for id, want := range cases {
		if got := sw.Route(id); got != want {
			t.Errorf("Route(%d) = %d, want %d", id, got, want)
		}
	}
	if got := sw.BackupRoute(math.MinInt); got != 4 {
		t.Errorf("BackupRoute(MinInt) = %d, want 4", got)
	}
	sw.ReserveRoutes(3, 0) // empty: a no-op
	sw.ReserveRoutes(-7, -2)
	checkRuns(t, &sw.routes)
}

// TestRouteTableMatchesMap drives the table and a reference map through the
// same random writes and reservations — clustered ids, negative ones
// included — and compares every entry after each step.
func TestRouteTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		sw := routeSwitch()
		prim, back := map[NodeID]int{}, map[NodeID]int{}
		bases := []NodeID{-200, 0, 300, 1 << 19, 1 << 20}
		id := func() NodeID { return bases[r.Intn(len(bases))] + NodeID(r.Intn(300)-20) }
		for step := 0; step < 100; step++ {
			switch dst, port := id(), r.Intn(8); r.Intn(5) {
			case 0:
				sw.SetBackupRoute(dst, port)
				back[dst] = port
			case 1:
				sw.ReserveRoutes(dst, r.Intn(120))
			default:
				sw.SetRoute(dst, port)
				prim[dst] = port
			}
		}
		checkRuns(t, &sw.routes)
		for _, b := range bases {
			for dst := b - 30; dst < b+310; dst++ {
				wp, ok := prim[dst]
				if !ok {
					wp = -1
				}
				wb, ok := back[dst]
				if !ok {
					wb = -1
				}
				if p, bk := sw.Route(dst), sw.BackupRoute(dst); p != wp || bk != wb {
					t.Fatalf("round %d id %d: (%d,%d), want (%d,%d)", round, dst, p, bk, wp, wb)
				}
			}
		}
	}
}

func TestRouteWritesPanicAfterStartOrOutOfRange(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	sw := routeSwitch()
	mustPanic("port -1", func() { sw.SetRoute(1, -1) })
	mustPanic("port 8", func() { sw.SetBackupRoute(1, 8) })
	sw.Start()
	mustPanic("SetRoute after Start", func() { sw.SetRoute(1, 0) })
	mustPanic("ReserveRoutes after Start", func() { sw.ReserveRoutes(1, 4) })
}
