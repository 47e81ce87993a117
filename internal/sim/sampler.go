package sim

// Sampler records a value at fixed simulated intervals — utilization or
// queue-depth timelines for figures. On a serial engine it runs as event
// callbacks; Stop it before the simulation ends (a live sampler keeps the
// event queue non-empty).
type Sampler struct {
	X []float64 // sample times, seconds
	Y []float64

	interval Time
	stop     bool

	// Serial-engine state; a Group drives its samplers at barrier epochs
	// and leaves it zero. The callbacks are bound once, so a tick
	// allocates nothing.
	eng      *Engine
	fn       func() float64
	tick     timer // the armed tick, cancelled by Stop
	tickFn   func()
	sampleFn func()
}

// StartSampler begins sampling fn every interval, starting one interval in.
// fn may call Stop to end the timeline after the current sample, or
// Decimate to halve its resolution and keep going (long runs stay bounded
// without the timeline ending early). fn runs before the sample is
// appended, so either call observes a consistent X/Y pair set.
func StartSampler(eng *Engine, interval Time, fn func() float64) *Sampler {
	s := &Sampler{interval: interval, eng: eng, fn: fn}
	s.tickFn, s.sampleFn = s.onTick, s.sample
	eng.schedule(eng.now, s.arm, nil)
	return s
}

// arm schedules the next tick one interval ahead. It reads the interval
// after fn has run, so a Decimate takes effect on the next tick.
func (s *Sampler) arm() {
	if s.stop {
		return
	}
	s.tick = s.eng.schedule(s.eng.now+s.interval, s.tickFn, nil)
}

// onTick defers the sample to the back of the tick's instant, behind every
// event already queued for it, so fn observes the same state at every
// sample time as it always has.
func (s *Sampler) onTick() { s.eng.schedule(s.eng.now, s.sampleFn, nil) }

func (s *Sampler) sample() {
	if s.stop {
		return
	}
	v := s.fn()
	s.X = append(s.X, s.eng.now.Seconds())
	s.Y = append(s.Y, v)
	s.arm()
}

// Stop ends sampling and cancels the armed tick, so a stopped sampler no
// longer holds the event queue open for a further interval.
func (s *Sampler) Stop() {
	s.stop = true
	if s.tick != (timer{}) {
		s.eng.cancel(s.tick)
	}
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
