package sim

import "testing"

func TestSamplerStopWakesImmediately(t *testing.T) {
	// A stopped sampler must not doze through one more interval: Stop
	// cancels its armed tick on the spot, so the event queue drains at the
	// workload's end rather than one sampling interval later.
	e := NewEngine()
	s := StartSampler(e, Second, func() float64 { return 1 })
	e.Spawn("work", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		s.Stop()
	})
	end := e.Run()
	if end != 30*Microsecond {
		t.Fatalf("Run ended at %v, want 30us — the cancelled timer advanced the clock", end)
	}
	if s.N() != 0 {
		t.Fatalf("sampler stopped mid-interval took %d samples, want 0", s.N())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
	}
}

func TestSamplerTicksAtInterval(t *testing.T) {
	e := NewEngine()
	v := 0.0
	s := StartSampler(e, 10*Microsecond, func() float64 { return v })
	e.Spawn("work", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * Microsecond)
			v++
		}
		p.Sleep(5 * Microsecond)
		s.Stop()
	})
	e.Run()
	if s.N() != 4 {
		t.Fatalf("samples = %d, want 4", s.N())
	}
	for i, x := range s.X {
		want := (Time(i+1) * 10 * Microsecond).Seconds()
		if x != want {
			t.Fatalf("sample %d at %gs, want %gs", i, x, want)
		}
	}
}

func TestSamplerStopFromCallback(t *testing.T) {
	// fn may Stop its own sampler — the timeline cap used by the metrics
	// layer. The sample that triggered the stop is still recorded.
	e := NewEngine()
	var s *Sampler
	n := 0
	s = StartSampler(e, Microsecond, func() float64 {
		n++
		if n == 3 {
			s.Stop()
		}
		return float64(n)
	})
	e.Spawn("work", func(p *Proc) { p.Sleep(Millisecond) })
	e.Run()
	if s.N() != 3 {
		t.Fatalf("capped sampler took %d samples, want 3", s.N())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
	}
}

func TestSamplerDecimate(t *testing.T) {
	// Decimating from the sampling fn halves the series in place, doubles
	// the interval, and keeps sampling — the timeline cap behaviour. The
	// kept samples land exactly on the doubled grid, as if the sampler had
	// run at the coarser interval all along.
	const cap = 8
	e := NewEngine()
	var s *Sampler
	s = StartSampler(e, 10*Microsecond, func() float64 {
		v := float64(s.Interval())
		if s.N() >= cap-1 {
			s.Decimate()
		}
		return v
	})
	e.Spawn("work", func(p *Proc) {
		p.Sleep(400 * Microsecond)
		s.Stop()
	})
	e.Run()
	if s.N() >= cap {
		t.Fatalf("decimating sampler holds %d samples, want < %d", s.N(), cap)
	}
	if s.Interval() <= 10*Microsecond {
		t.Fatalf("interval = %v after decimation, want > 10us", s.Interval())
	}
	// X must be strictly increasing and evenly spaced at the final interval
	// over the tail (all samples re-land on the doubled grid each round).
	for i := 1; i < s.N(); i++ {
		if s.X[i] <= s.X[i-1] {
			t.Fatalf("X not increasing at %d: %v", i, s.X)
		}
	}
	step := s.Interval().Seconds()
	for i := 1; i < s.N(); i++ {
		if d := s.X[i] - s.X[i-1]; d < step*0.999 || d > step*1.001 {
			t.Fatalf("spacing at %d = %gs, want %gs (X=%v)", i, d, step, s.X)
		}
	}
	// The fn above records the interval each sample was taken with; the
	// surviving samples' values must match intervals that were live then
	// (powers of two times the base).
	for i, y := range s.Y {
		iv := Time(y)
		ok := false
		for k := 10 * Microsecond; k <= s.Interval(); k *= 2 {
			if iv == k {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("sample %d recorded interval %v, not a power-of-two multiple of 10us", i, iv)
		}
	}
}

func TestSamplerStopBeforeRun(t *testing.T) {
	// Stopping before the engine ever runs is a no-op start: no samples,
	// no leaked proc, no events left behind.
	e := NewEngine()
	s := StartSampler(e, Microsecond, func() float64 { return 0 })
	s.Stop()
	e.Run()
	if s.N() != 0 {
		t.Fatalf("samples = %d, want 0", s.N())
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("sampler leaked a proc")
	}
}
