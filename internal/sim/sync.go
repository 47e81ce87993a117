package sim

// Waiter is a parked continuation: exactly what an event carries — a
// callback to run or a process to resume — on the engine that wakes it.
// Every primitive here keeps one FIFO of Waiters and wakes either kind by
// scheduling it at the current instant. Processes use the blocking forms
// (Get, Acquire, Join, Wait), which enqueue their own waiter and park;
// event-driven components bind a Waiter per continuation once, with
// Engine.Waiter, for the non-blocking forms (GetOr, AcquireOr, Enter,
// Notify), so a wake-up allocates nothing.
type Waiter struct {
	eng  *Engine
	fn   func()
	proc *Proc
}

// Waiter returns a callback waiter that runs fn on e when woken.
func (e *Engine) Waiter(fn func()) Waiter { return Waiter{eng: e, fn: fn} }

// waiter returns the process's own waiter.
func (p *Proc) waiter() Waiter { return Waiter{eng: p.eng, proc: p} }

// wake schedules the waiter to continue at its engine's current instant.
func (w Waiter) wake() { w.eng.schedule(w.eng.now, w.fn, w.proc) }

// fifo is a slice queue that dequeues by head index, so a steady
// produce/consume cycle reuses the backing array instead of creeping
// through it and reallocating.
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int    { return len(f.items) - f.head }
func (f *fifo[T]) push(v T)    { f.items = append(f.items, v) }
func (f *fifo[T]) peek() T     { return f.items[f.head] }
func (f *fifo[T]) empty() bool { return f.len() == 0 }

// pop removes the head item, recycling the backing array once drained and
// compacting when the consumed prefix dominates it.
func (f *fifo[T]) pop() T {
	v := f.items[f.head]
	var zero T
	f.items[f.head] = zero
	f.head++
	switch {
	case f.head == len(f.items):
		f.items, f.head = f.items[:0], 0
	case f.head > 32 && f.head > len(f.items)/2:
		n := copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items = f.items[:n]
		f.head = 0
	}
	return v
}

// wakeAll wakes every queued waiter in FIFO order. Waking only schedules
// events, so no waiter can join while the loop runs.
func wakeAll(q *fifo[Waiter]) {
	for !q.empty() {
		q.pop().wake()
	}
}

// Queue is an unbounded FIFO of values passed between processes and event
// callbacks. Put never blocks and may be called from engine context.
type Queue[T any] struct {
	items   fifo[T]
	waiters fifo[Waiter]
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Put appends v and wakes the oldest waiter, if any.
func (q *Queue[T]) Put(v T) {
	q.items.push(v)
	if !q.waiters.empty() {
		q.waiters.pop().wake()
	}
}

// GetOr removes and returns the head item; when the queue is empty it
// parks w until the next Put instead. A woken waiter polls again, because
// another consumer may have taken the item first.
func (q *Queue[T]) GetOr(w Waiter) (v T, ok bool) {
	if q.items.empty() {
		q.waiters.push(w)
		return v, false
	}
	return q.items.pop(), true
}

// Get removes and returns the head item, blocking p while the queue is
// empty. Waiters are served FIFO.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if v, ok := q.GetOr(p.waiter()); ok {
			return v
		}
		p.block()
	}
}

// TryGet removes the head item without blocking; ok is false if empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.empty() {
		return v, false
	}
	return q.items.pop(), true
}

// Semaphore is a counting semaphore used for credits and buffer pools.
// Waiters are served FIFO, so a large request is not starved by a stream
// of small ones. A waiter takes its permits when it runs, not when they are
// released, so Available always shows what has actually been taken.
type Semaphore struct {
	count   int
	waiters fifo[Waiter]
	// woken marks that the head waiter's wake event is pending, so further
	// releases do not wake it twice.
	woken bool
	// grantFn, bound once, takes the permit for a woken callback head
	// before running its continuation.
	grantFn func()
}

// NewSemaphore returns a semaphore holding n initial permits.
func NewSemaphore(n int) *Semaphore {
	s := &Semaphore{count: n}
	s.grantFn = s.grant
	return s
}

// Available reports the current permit count.
func (s *Semaphore) Available() int { return s.count }

// Acquire takes one permit, blocking p until one is free.
func (s *Semaphore) Acquire(p *Proc) { s.AcquireN(p, 1) }

// AcquireN takes n permits atomically, blocking until the full count is
// available to this waiter.
func (s *Semaphore) AcquireN(p *Proc, n int) {
	if s.waiters.empty() && s.count >= n {
		s.count -= n
		return
	}
	s.waiters.push(p.waiter())
	for {
		// Only the head is ever woken; it re-checks its own count.
		p.block()
		s.woken = false
		if s.count >= n {
			break
		}
	}
	s.waiters.pop()
	s.count -= n
	s.wake()
}

// AcquireOr takes one permit and returns true if one is free and nobody is
// queued ahead; otherwise it queues w and returns false, and w runs holding
// its permit once its turn comes.
func (s *Semaphore) AcquireOr(w Waiter) bool {
	if s.waiters.empty() && s.count > 0 {
		s.count--
		return true
	}
	s.waiters.push(w)
	return false
}

// grant runs a woken callback head: a callback always wants one permit,
// and only the head takes permits while waiters queue, so one is free.
func (s *Semaphore) grant() {
	s.woken = false
	w := s.waiters.pop()
	s.count--
	s.wake()
	w.fn()
}

// TryAcquire takes a permit only if one is immediately free and no waiter
// is already queued ahead.
func (s *Semaphore) TryAcquire() bool {
	if s.count > 0 && s.waiters.empty() {
		s.count--
		return true
	}
	return false
}

// Release returns one permit.
func (s *Semaphore) Release() { s.ReleaseN(1) }

// ReleaseN returns n permits and wakes the head waiter.
func (s *Semaphore) ReleaseN(n int) {
	s.count += n
	s.wake()
}

// wake schedules the head waiter once permits are free: a process resumes
// into AcquireN's check, a callback through grant.
func (s *Semaphore) wake() {
	if s.woken || s.waiters.empty() || s.count <= 0 {
		return
	}
	s.woken = true
	w := s.waiters.peek()
	if w.proc != nil {
		w.wake()
		return
	}
	w.eng.schedule(w.eng.now, s.grantFn, nil)
}

// Signal is a broadcast condition: waiters park on it and a Fire call
// wakes every current waiter. A Signal may be fired many times.
type Signal struct {
	waiters fifo[Waiter]
	fires   int
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fires reports how many times Fire has been called.
func (s *Signal) Fires() int { return s.fires }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.Notify(p.waiter())
	p.block()
}

// Notify parks w until the next Fire.
func (s *Signal) Notify(w Waiter) { s.waiters.push(w) }

// Fire wakes all current waiters.
func (s *Signal) Fire() {
	s.fires++
	wakeAll(&s.waiters)
}

// Latch is a one-shot completion flag: Wait returns immediately once Open
// has been called.
type Latch struct {
	open    bool
	waiters fifo[Waiter]
}

// NewLatch returns a closed latch.
func NewLatch() *Latch { return &Latch{} }

// Opened reports whether Open has been called.
func (l *Latch) Opened() bool { return l.open }

// Wait blocks p until the latch opens (or returns at once if already open).
func (l *Latch) Wait(p *Proc) {
	if l.open {
		return
	}
	l.waiters.push(p.waiter())
	p.block()
}

// Open releases all current and future waiters. Opening twice is a no-op.
func (l *Latch) Open() {
	if l.open {
		return
	}
	l.open = true
	wakeAll(&l.waiters)
}

// WaitGroup counts outstanding work items; Wait blocks until the count hits
// zero.
type WaitGroup struct {
	count   int
	waiters fifo[Waiter]
}

// Add increments the outstanding count by n (n may be negative, like
// sync.WaitGroup).
func (w *WaitGroup) Add(n int) {
	w.count += n
	if w.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if w.count == 0 {
		wakeAll(&w.waiters)
	}
}

// Done decrements the outstanding count.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.waiters.push(p.waiter())
		p.block()
	}
}
