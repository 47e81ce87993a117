package sim

import (
	"fmt"
	"testing"
)

// order records which waiter ran, as "name@time".
type order []string

func (o *order) note(name string, at Time) { *o = append(*o, fmt.Sprintf("%s@%v", name, at)) }

func (o order) check(t *testing.T, want ...string) {
	t.Helper()
	if fmt.Sprint(o) != fmt.Sprint(want) {
		t.Fatalf("service order %v, want %v", o, want)
	}
}

func TestSemaphoreMixedWaitersFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(0)
	var got order
	proc := func(name string) {
		e.Spawn(name, func(p *Proc) {
			s.Acquire(p)
			got.note(name, p.Now())
		})
	}
	callback := func(name string) {
		e.Schedule(0, func() {
			if s.AcquireOr(e.Waiter(func() { got.note(name, e.Now()) })) {
				t.Errorf("%s acquired an empty semaphore", name)
			}
		})
	}
	proc("p1")
	callback("c1")
	proc("p2")
	callback("c2")
	e.Schedule(10, func() { s.ReleaseN(4) })
	e.Run()
	got.check(t, "p1@10ps", "c1@10ps", "p2@10ps", "c2@10ps")
	if s.Available() != 0 {
		t.Fatalf("%d permits left, want 0", s.Available())
	}
}

func TestQueueMixedWaitersFIFO(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string]()
	var got order
	proc := func(name string) {
		e.Spawn(name, func(p *Proc) {
			got.note(name+"="+q.Get(p), p.Now())
		})
	}
	callback := func(name string) {
		var w Waiter
		w = e.Waiter(func() {
			if v, ok := q.GetOr(w); ok {
				got.note(name+"="+v, e.Now())
			}
		})
		e.Schedule(0, w.fn)
	}
	proc("p1")
	callback("c1")
	proc("p2")
	callback("c2")
	e.Schedule(10, func() {
		for _, v := range []string{"a", "b", "c", "d"} {
			q.Put(v)
		}
	})
	e.Run()
	got.check(t, "p1=a@10ps", "c1=b@10ps", "p2=c@10ps", "c2=d@10ps")
}

func TestArbiterMixedWaitersIndexOrder(t *testing.T) {
	e := NewEngine()
	a := NewArbiter(e)
	var got order
	proc := func(name string, index int) {
		e.SpawnAt(5, name, func(p *Proc) {
			a.Join(p, index)
			got.note(name, p.Now())
		})
	}
	callback := func(name string, index int) {
		e.Schedule(5, func() {
			a.Enter(e.Waiter(func() { got.note(name, e.Now()) }), index)
		})
	}
	proc("p1", 3)
	callback("c1", 1)
	proc("p2", 2)
	callback("c2", 1)
	e.Run()
	got.check(t, "c1@5ps", "c2@5ps", "p2@5ps", "p1@5ps")
}

// TestCallbackWakeZeroAllocs gates the event-driven fabric's wake path: a
// callback parked on a queue, a semaphore and the settle arbiter is woken
// without allocating, so per-packet pipelines stay allocation-free.
func TestCallbackWakeZeroAllocs(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	s := NewSemaphore(0)
	a := NewArbiter(e)
	woken := 0
	got := e.Waiter(func() {
		if _, ok := q.TryGet(); ok {
			woken++
		}
	})
	granted := e.Waiter(func() { woken++ })
	cycle := func() {
		q.GetOr(got)
		q.Put(1)
		s.AcquireOr(granted)
		s.Release()
		a.Enter(granted, 0)
		e.Run()
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	woken = 0
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("callback wake cycle allocates %.1f times, want 0", allocs)
	}
	if woken != 3*101 { // AllocsPerRun adds one warm-up call
		t.Fatalf("%d wakes, want %d", woken, 3*101)
	}
}

// TestCallbackPanicSurfacesFromRun pins panic attribution: an event callback
// that panics surfaces from Run as its bare value whichever goroutine drove
// it — the Run caller, a blocked process, or a process that just returned —
// and is never reported as the driving process's panic.
func TestCallbackPanicSurfacesFromRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(e *Engine)
	}{
		{"main driver", func(*Engine) {}},
		{"blocked proc driver", func(e *Engine) {
			e.Spawn("victim", func(p *Proc) { p.Sleep(100) })
		}},
		{"exiting proc driver", func(e *Engine) {
			e.Spawn("victim", func(p *Proc) {})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Shutdown()
			tc.setup(e)
			e.Schedule(10, func() { panic("boom") })
			got := func() (r any) {
				defer func() { r = recover() }()
				e.Run()
				return nil
			}()
			if got != "boom" {
				t.Fatalf("Run panicked with %#v, want the callback's bare value %q", got, "boom")
			}
		})
	}
}
