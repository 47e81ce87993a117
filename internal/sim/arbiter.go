package sim

// Arbiter is a settle-phase admission arbiter: waiters contending for a
// shared resource at the same instant enter with a caller-chosen index and
// are all granted together at the end of the instant in ascending index
// order (ties in entry order). Because the grant order depends only on the
// indices — not on the order the contenders' wake events happened to be
// inserted — everything downstream of the grants (FIFO queues, semaphore
// waiter lists) becomes a pure function of simulated state. The switch
// crossbar uses one per switch, with the input-port number as the index, so
// same-instant arrivals are serviced port-by-port exactly like a hardware
// crossbar arbiter, whichever engine or partition delivered them.
type Arbiter struct {
	eng     *Engine
	pending []arbWaiter
	// armed marks that a settle hook is registered for the current instant;
	// it resets before the grants so a granted process that re-Joins at the
	// same instant arms a fresh settle pass.
	armed bool
	// settleFn is the bound hook, allocated once at construction.
	settleFn func()
}

type arbWaiter struct {
	index int
	w     Waiter
}

// NewArbiter returns an arbiter driven by eng's end-of-instant settle.
func NewArbiter(eng *Engine) *Arbiter {
	a := &Arbiter{eng: eng}
	a.settleFn = a.settle
	return a
}

// Join stages p behind the given index and parks it until the end-of-instant
// settle grants this instant's entrants in ascending index order. It returns
// when p's turn comes; entrants with equal indices keep their entry order.
func (a *Arbiter) Join(p *Proc, index int) {
	a.Enter(p.waiter(), index)
	p.block()
}

// Enter stages w behind the given index; the end-of-instant settle wakes it
// in its turn.
func (a *Arbiter) Enter(w Waiter, index int) {
	a.pending = append(a.pending, arbWaiter{index: index, w: w})
	if !a.armed {
		a.armed = true
		a.eng.Settle(a.settleFn)
	}
}

// settle grants the instant's entrants. The wakes schedule the waiters'
// events in grant order, so the waiters resume — and take their downstream
// FIFO slots — in exactly that order at the same instant.
func (a *Arbiter) settle() {
	a.armed = false
	pend := a.pending
	// Stable insertion sort by index: joiner sets are a handful of ports, and
	// sorting in place keeps the settle path allocation-free.
	for i := 1; i < len(pend); i++ {
		w := pend[i]
		j := i
		for j > 0 && pend[j-1].index > w.index {
			pend[j] = pend[j-1]
			j--
		}
		pend[j] = w
	}
	// Reset before waking: grants only schedule events, so no entry can
	// interleave with this loop, but a granted waiter may enter again once
	// it runs — that append must start a fresh pending set.
	a.pending = a.pending[:0]
	for _, w := range pend {
		w.w.wake()
	}
}
