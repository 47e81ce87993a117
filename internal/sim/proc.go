package sim

import "fmt"

// Proc is a simulated process: a goroutine that the engine resumes one at a
// time. Inside the process function, call Sleep/Get/Acquire/etc. to advance
// simulated time; the engine never runs two processes (or a process and an
// event callback) concurrently, so process code may touch shared simulation
// state without locks. Processes are for code that blocks in the middle of
// a computation; a component that only reacts to events is cheaper as event
// callbacks (see Waiter).
type Proc struct {
	eng  *Engine
	name string

	// handoff is the process's single control channel: receiving on it
	// means "your wake event just fired — you are the active goroutine,
	// continue". A blocked process does not yield to a central engine
	// goroutine; it drives the event loop itself (see block), so the
	// old resume/yield channel pair collapses to one channel and a
	// cross-process switch costs a single token send instead of a
	// yield-plus-resume.
	handoff chan struct{}

	done bool

	// killed asks the process to unwind at its next block point; see
	// Engine.Shutdown.
	killed bool
}

// errKilled unwinds a process goroutine during Engine.Shutdown.
type killedError struct{}

func (killedError) Error() string { return "sim: proc killed by Shutdown" }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the debug name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a process running fn, starting at the current simulated
// time. fn runs on its own goroutine but only while the engine is paused, so
// it may freely use the engine and other simulation objects.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is like Spawn but the process begins at the given absolute time.
func (e *Engine) SpawnAt(at Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:     e,
		name:    name,
		handoff: make(chan struct{}),
	}
	e.procs++
	e.all = append(e.all, p)
	go func() {
		<-p.handoff
		defer func() {
			if r := recover(); r != nil {
				switch _, killed := r.(killedError); {
				case e.inCallback:
					// An event callback this goroutine was driving
					// panicked: Run re-raises the bare value, exactly as
					// when the Run caller drives the callback itself.
					e.inCallback = false
					e.fatal = r
				case !killed:
					// Surface the panic in the Run caller: exitDrive hands
					// control back and driveMain re-raises, so a handler
					// bug fails the test instead of killing the process.
					e.fatal = &procPanic{proc: p.name, value: r}
				}
			}
			p.done = true
			e.procs--
			// This goroutine still holds the control token: keep the event
			// loop moving until control belongs elsewhere, then exit.
			e.exitDrive()
		}()
		if p.killed {
			panic(killedError{})
		}
		fn(p)
	}()
	// The wake event carries the proc itself rather than a closure, so
	// spawning (and every later sleep or wake) costs no per-event allocation.
	e.schedule(at, nil, p)
	return p
}

// procPanic wraps a panic raised inside a process goroutine.
type procPanic struct {
	proc  string
	value any
}

func (pp *procPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v", pp.proc, pp.value)
}

// block parks the process until its next wake event fires. Rather than
// yielding to a central engine goroutine, the blocking process drives the
// event loop itself: if the next event is its own wake-up — the dominant
// case — it simply continues, with no channel operation or goroutine switch
// at all. If the next event resumes another process, the token is handed
// straight to it (one send); and when the phase ends the Run caller is woken
// instead. It must be called from the process goroutine.
func (p *Proc) block() {
	e := p.eng
	for {
		if e.fatal != nil || e.stopped {
			e.mainWake <- struct{}{}
			<-p.handoff
			break
		}
		idx, ok := e.popNext()
		if !ok {
			e.mainWake <- struct{}{}
			<-p.handoff
			break
		}
		fn, proc := e.take(idx)
		if proc == p {
			break
		}
		if proc != nil {
			proc.handoff <- struct{}{}
			<-p.handoff
			break
		}
		e.inCallback = true
		fn()
		e.inCallback = false
	}
	if p.killed {
		panic(killedError{})
	}
}

// Sleep suspends the process for d simulated time (d <= 0 is a no-op that
// still yields to same-time events scheduled earlier).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v in %s", d, p.name))
	}
	p.eng.schedule(p.eng.now+d, nil, p)
	p.block()
}

// SleepUntil suspends the process until the given absolute time; times in
// the past panic.
func (p *Proc) SleepUntil(at Time) {
	if at < p.eng.now {
		panic(fmt.Sprintf("sim: SleepUntil into the past (%v < %v) in %s", at, p.eng.now, p.name))
	}
	p.eng.schedule(at, nil, p)
	p.block()
}
