package sim

// Sampler records a value at fixed simulated intervals — utilization or
// queue-depth timelines for figures. It runs as a process; Stop it before
// the simulation ends (a live sampler keeps the event queue non-empty).
type Sampler struct {
	X []float64 // sample times, seconds
	Y []float64

	interval Time
	stop     bool
	// wake fires on the tick or a Stop, whichever comes first; a fire
	// finds no waiter once the process is already woken.
	wake Signal
}

// StartSampler begins sampling fn every interval, starting one interval in.
// fn may call Stop to end the timeline after the current sample, or
// Decimate to halve its resolution and keep going (long runs stay bounded
// without the timeline ending early). fn runs before the sample is
// appended, so either call observes a consistent X/Y pair set.
func StartSampler(eng *Engine, interval Time, fn func() float64) *Sampler {
	s := &Sampler{interval: interval}
	eng.Spawn("sampler", func(p *Proc) {
		// Bind the wake callback once: a per-interval method value would be
		// one allocation per tick.
		wake := s.wake.Fire
		for !s.stop {
			// An interruptible sleep: Stop wakes the process immediately
			// instead of letting it doze through one more interval, and the
			// pending timer is cancelled so it cannot hold the event queue
			// open or advance the clock past the run's end.
			deadline := p.Now() + s.interval
			timer := eng.schedule(deadline, wake, nil)
			for !s.stop && p.Now() < deadline {
				s.wake.Wait(p)
			}
			if s.stop {
				eng.cancel(timer)
				return
			}
			v := fn()
			s.X = append(s.X, p.Now().Seconds())
			s.Y = append(s.Y, v)
		}
	})
	return s
}

// Stop ends sampling and wakes the sampler process immediately, so a
// stopped sampler no longer holds the event queue open for a further
// interval.
func (s *Sampler) Stop() {
	s.stop = true
	s.wake.Fire()
}

// N reports how many samples were taken.
func (s *Sampler) N() int { return len(s.X) }

// Interval reports the current sampling interval (doubled by Decimate).
func (s *Sampler) Interval() Time { return s.interval }

// Decimate halves the timeline's resolution in place: every other recorded
// sample is dropped and the sampling interval doubles. The kept samples
// (the odd-indexed ones, at 2dt, 4dt, ...) land exactly on the doubled
// grid, so a timeline decimated k times looks as if it had been sampled at
// 2^k times the original interval all along. Call from the sampling fn
// when the series reaches a size cap.
func (s *Sampler) Decimate() {
	keep := 0
	for i := 1; i < len(s.X); i += 2 {
		s.X[keep] = s.X[i]
		s.Y[keep] = s.Y[i]
		keep++
	}
	s.X = s.X[:keep]
	s.Y = s.Y[:keep]
	s.interval *= 2
}
