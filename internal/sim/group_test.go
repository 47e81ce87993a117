package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The Group tests pin the partitioned-engine contract from PERFORMANCE.md:
// deliveries land at exact virtual times, same-time cross-partition messages
// inject in (time, channel, sequence) order, credits retire deliveries in
// FIFO order, rounds that fit no conservative window degrade to single-
// instant micro-steps, and samplers observe the same timeline the serial
// engine would produce.

// TestGroupDeliverTiming: a message posted during a window runs on the
// receiving engine at exactly the requested virtual time, and Run returns
// the latest clock across partitions.
func TestGroupDeliverTiming(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 5, 0)

	var gotAt Time = -1
	g.Engine(0).Schedule(10, func() {
		ch.Deliver(15, func() {
			gotAt = g.Engine(1).Now()
		})
	})
	end := g.Run()
	if gotAt != 15 {
		t.Fatalf("delivery ran at %d, want 15", gotAt)
	}
	if end != 15 {
		t.Fatalf("Run returned %d, want 15", end)
	}
	if g.Rounds() == 0 {
		t.Fatalf("no barrier rounds recorded")
	}
}

// TestGroupInjectionOrder: messages buffered across a barrier inject in
// (time, channel index, channel sequence) order regardless of which rank
// posted them, so the receiving engine's event order is deterministic.
func TestGroupInjectionOrder(t *testing.T) {
	g := NewGroup(3)
	defer g.Shutdown()
	chA := g.Connect(1, 0, 1, 0) // idx 0: ties ahead of chB
	chB := g.Connect(2, 0, 1, 0) // idx 1

	var order []string
	note := func(s string) func() { return func() { order = append(order, s) } }

	// Both senders buffer same-time (t=50) deliveries in one window; rank 2
	// posts before rank 1 in wall-clock terms, but channel index must win.
	g.Engine(1).Schedule(3, func() {
		chA.Deliver(50, note("a1"))
		chA.Deliver(50, note("a2"))
	})
	g.Engine(2).Schedule(2, func() {
		chB.Deliver(50, note("b1"))
		chB.Deliver(40, note("b0"))
	})
	g.Run()

	want := []string{"b0", "a1", "a2", "b1"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("injection order %v, want %v", order, want)
	}
}

// TestGroupCreditFIFO: credits retire outstanding deliveries oldest-first,
// return to the sending engine at the receiver's posting time, and a fully
// credited channel leaves the outstanding list.
func TestGroupCreditFIFO(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 5, 3)

	var creditAt []Time
	g.Engine(0).Schedule(0, func() {
		ch.Deliver(10, func() {
			// Receiver frees the buffer 3 ns after arrival.
			g.Engine(1).Schedule(13, func() { ch.Credit(func() { creditAt = append(creditAt, g.Engine(0).Now()) }) })
		})
		ch.Deliver(20, func() {
			g.Engine(1).Schedule(23, func() { ch.Credit(func() { creditAt = append(creditAt, g.Engine(0).Now()) }) })
		})
	})
	g.Run()

	if want := []Time{13, 23}; !reflect.DeepEqual(creditAt, want) {
		t.Fatalf("credits returned at %v, want %v", creditAt, want)
	}
	if ch.outHead != 0 || len(ch.outstanding) != 0 {
		t.Fatalf("outstanding not drained: head=%d len=%d", ch.outHead, len(ch.outstanding))
	}
	if ch.inOutst {
		// The lazy compaction runs at the next barrier's computeHorizons;
		// after Run drains, one more compaction may be pending — accept
		// either, but the retire bookkeeping above must be exact.
		t.Logf("channel still on outstanding list (compacts at next barrier)")
	}
}

// TestGroupMicroStep constructs mutual credit blockage: both partitions hold
// a delivery at T whose channels have zero credit lookahead, so neither
// horizon admits a window and the round must settle T as a micro-step.
func TestGroupMicroStep(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	chA := g.Connect(0, 1, 5, 0)
	chB := g.Connect(1, 0, 5, 0)

	// One slot per receiving rank: the two t=5 micro-step windows execute
	// concurrently, so a shared slice would race.
	at0, at1 := Time(-1), Time(-1)
	g.Engine(0).Schedule(0, func() {
		chA.Deliver(5, func() { at1 = g.Engine(1).Now() })
	})
	g.Engine(1).Schedule(0, func() {
		chB.Deliver(5, func() { at0 = g.Engine(0).Now() })
	})
	g.Run()

	if at0 != 5 || at1 != 5 {
		t.Fatalf("deliveries at %d and %d, want 5 and 5", at0, at1)
	}
	if g.MicroSteps() == 0 {
		t.Fatalf("expected the credit-blocked round to micro-step, got %d rounds, 0 micro-steps", g.Rounds())
	}
}

// groupSamplerWorkload drives the same counter timeline through a serial
// engine and a 2-partition group (with one cross-partition delivery) and
// returns both samplers for comparison.
func groupSamplerWorkload() (serial, grouped *Sampler, cleanup func()) {
	bump := []Time{3, 7, 13, 17, 23, 27}

	// Serial: one counter, bumped at each instant, sampled every 5 ns.
	se := NewEngine()
	sc := 0
	for _, at := range bump {
		se.Schedule(at, func() { sc++ })
	}
	var ss *Sampler
	ss = StartSampler(se, 5, func() float64 {
		if ss.N() >= 5 {
			ss.Stop() // sixth sample still recorded, then the timeline ends
		}
		return float64(sc)
	})
	se.Run()

	// Grouped: the bumps split across two partitions; the t=7 bump arrives
	// as a cross-partition delivery so the sampler must not observe the
	// sending window early.
	g := NewGroup(2)
	ch := g.Connect(0, 1, 4, 0)
	c0, c1 := 0, 0
	g.Engine(0).Schedule(3, func() {
		c0++
		ch.Deliver(7, func() { c1++ })
	})
	g.Engine(0).Schedule(13, func() { c0++ })
	g.Engine(0).Schedule(23, func() { c0++ })
	g.Engine(1).Schedule(17, func() { c1++ })
	g.Engine(1).Schedule(27, func() { c1++ })
	var gs *Sampler
	gs = g.StartSampler(5, func() float64 {
		if gs.N() >= 5 {
			gs.Stop()
		}
		return float64(c0 + c1)
	})
	g.Run()
	return ss, gs, g.Shutdown
}

// TestGroupSamplerMatchesSerial: a Group sampler fires on the same epoch
// grid with the same values as the serial engine's callback sampler — the
// timeline seam partitioned clusters rely on.
func TestGroupSamplerMatchesSerial(t *testing.T) {
	ss, gs, cleanup := groupSamplerWorkload()
	defer cleanup()
	if ss.N() != 6 {
		t.Fatalf("serial sampler took %d samples, want 6", ss.N())
	}
	if !reflect.DeepEqual(ss.X, gs.X) || !reflect.DeepEqual(ss.Y, gs.Y) {
		t.Fatalf("timelines differ:\nserial X=%v Y=%v\ngroup  X=%v Y=%v", ss.X, ss.Y, gs.X, gs.Y)
	}
}

// TestGroupRunTwiceIdentical: two runs of the same partitioned workload
// deliver at the same times, end at the same time and count the same events
// — the deterministic EventsTotal/EventsCritical pair is a pure function of
// the workload, whatever the workers' scheduling.
func TestGroupRunTwiceIdentical(t *testing.T) {
	run := func() (Time, []Time, int64, int64) {
		g := NewGroup(2)
		defer g.Shutdown()
		ch := g.Connect(0, 1, 5, 2)
		var at []Time
		g.Engine(0).Schedule(1, func() {
			ch.Deliver(6, func() { at = append(at, g.Engine(1).Now()) })
			ch.Deliver(9, func() { at = append(at, g.Engine(1).Now()) })
		})
		end := g.Run()
		if g.EventsTotal() <= 0 || g.EventsCritical() <= 0 || g.EventsCritical() > g.EventsTotal() {
			t.Fatalf("event accounting: total=%d crit=%d", g.EventsTotal(), g.EventsCritical())
		}
		return end, at, g.EventsTotal(), g.EventsCritical()
	}
	end1, at1, evTot1, evCrit1 := run()
	end2, at2, evTot2, evCrit2 := run()
	if end1 != end2 || !reflect.DeepEqual(at1, at2) {
		t.Fatalf("second run diverged: end %d vs %d, deliveries %v vs %v", end1, end2, at1, at2)
	}
	if want := []Time{6, 9}; !reflect.DeepEqual(at1, want) {
		t.Fatalf("deliveries at %v, want %v", at1, want)
	}
	if evTot1 != evTot2 || evCrit1 != evCrit2 {
		t.Fatalf("event accounting diverged: total %d vs %d, critical %d vs %d", evTot1, evTot2, evCrit1, evCrit2)
	}
}

// TestGroupPanicPropagation: a panic inside a partition window re-raises on
// the coordinator goroutine; with several failing ranks the lowest wins, so
// the surfaced crash is deterministic.
func TestGroupPanicPropagation(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	g.Engine(1).Schedule(5, func() { panic("boom-rank1") })
	g.Engine(0).Schedule(5, func() { panic("boom-rank0") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic")
		}
		msg := fmt.Sprint(r)
		if pp, ok := r.(*procPanic); ok {
			msg = fmt.Sprint(pp.value)
		}
		if !strings.Contains(msg, "boom-rank0") {
			t.Fatalf("surfaced %q, want the rank-0 panic", msg)
		}
	}()
	g.Run()
}

// TestGroupConnectValidation: the wiring mistakes that would silently break
// conservatism all panic at Connect time.
func TestGroupConnectValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("NewGroup(0)", func() { NewGroup(0) })
	g := NewGroup(2)
	defer g.Shutdown()
	mustPanic("same-rank channel", func() { g.Connect(0, 0, 5, 0) })
	mustPanic("zero lookahead", func() { g.Connect(0, 1, 0, 0) })
	mustPanic("negative credit lookahead", func() { g.Connect(0, 1, 5, -1) })
	mustPanic("zero-interval sampler", func() { g.StartSampler(0, func() float64 { return 0 }) })
	g.Run()
	mustPanic("Connect after Run", func() { g.Connect(0, 1, 5, 0) })
}

// TestGroupOneWayCreditBound pins the future-credit horizon term: on a
// channel with no reverse delivery partner, the sender must not run ahead of
// credits its own later sends will echo back. Without the bound, the sender
// window ran unboundedly ahead and late credits injected into its past.
func TestGroupOneWayCreditBound(t *testing.T) {
	g := NewGroup(2)
	defer g.Shutdown()
	ch := g.Connect(0, 1, 10, 0)
	const batch = 64
	n, sent, got := 4096, 0, 0
	ack := func() { ch.Credit(func() { got++ }) }
	var post func()
	post = func() {
		now := g.Engine(0).Now()
		for i := 0; i < batch && sent < n; i++ {
			sent++
			ch.Deliver(now+10, ack)
		}
		if sent < n {
			g.Engine(0).Schedule(now+20, post)
		}
	}
	g.Engine(0).Schedule(0, post)
	g.Run() // panics "scheduling into the past" without the bound
	if got != n {
		t.Fatalf("credits returned %d, want %d", got, n)
	}
}
