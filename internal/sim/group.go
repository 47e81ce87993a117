package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the multi-engine mode: a Group of Engines, one per
// topology partition, advancing in conservative lookahead windows
// (Chandy–Misra–Bryant style, no rollback) separated by barriers at which
// cross-partition messages are exchanged. See PERFORMANCE.md ("Partitioned
// simulation") for the full scheme and the determinism contract.
//
// The design leans on two properties of the SAN model:
//
//   - A cut link's delivery latency is bounded below by its wire propagation:
//     a sender action at time u cannot land a packet head at the receiver
//     before u + Propagation. That is the delivery lookahead.
//
//   - A cut link's credit return is bounded below in two ways: the receiving
//     port frees the input buffer of the *oldest* outstanding delivery first
//     (credits come back in arrival order), never earlier than that
//     delivery's arrival plus the receiver's routing latency (an input
//     port's routing step is an event that far after the arrival, and every
//     disposition that returns the credit follows it), and never before
//     the receiving partition acts at all. That is the credit lookahead —
//     without it, a partition waiting on flow-control credits would collapse
//     to lockstep with its neighbor.
//
// Determinism: messages buffered during a window are injected at the next
// barrier in (time, channel index, channel sequence) order, so each engine's
// event order — and therefore every simulation outcome — is a pure function
// of the topology and the partition count-independent virtual times. Same-
// time events on *different* engines touch disjoint component state, so
// results are byte-identical at any partition count; see the property tests.
// Same-instant arrivals at one switch from inputs fed by different
// partitions are arbitrated by the switch's settle-phase crossbar
// (Engine.Settle + Arbiter) in input-port order — a pure function of the
// topology, independent of delivering engine and injection order — so the
// identity holds even for fully synchronized bursts (see PERFORMANCE.md,
// "Determinism contract").

// xmsg is one cross-partition handoff: run fn on the target engine at
// virtual time at. seq is the channel-local posting order, breaking same-time
// ties in send order.
type xmsg struct {
	at  Time
	seq int64
	fn  func()
}

// Channel carries messages across one direction of a partition cut link:
// packet deliveries flow src→dst, flow-control credits flow back dst→src.
// Each cut link direction gets its own Channel — the credit bound relies on
// per-link FIFO credit return, which does not hold across links.
//
// Concurrency contract: Deliver is called only by the source engine's
// goroutine during a window, Credit only by the destination's; the
// coordinator drains both at barriers. The Group's worker start/done
// channel handoffs order every access, so no locking is needed.
type Channel struct {
	g   *Group
	idx int // global channel index: the deterministic same-time tie-break
	src int // sending partition rank
	dst int // receiving partition rank

	lookahead Time // min sender-action → delivery latency (wire propagation)
	creditLA  Time // min delivery → credit-return latency at the receiver

	srcEng *Engine
	dstEng *Engine

	deliv []xmsg
	cred  []xmsg
	dseq  int64
	cseq  int64

	// outstanding holds delivery times injected at the receiver whose
	// credits have not yet come back, in arrival order (coordinator only).
	// The head is the delivery whose credit returns next.
	outstanding []Time
	outHead     int
	inOutst     bool // on the group's outstanding-channel list
}

// Deliver posts a packet arrival: fn runs on the receiving engine at time at.
// The first post since the last barrier registers the channel on its source
// rank's dirty list, so barriers scan only channels that carried traffic.
func (c *Channel) Deliver(at Time, fn func()) {
	if len(c.deliv) == 0 {
		c.g.ddirty[c.src] = append(c.g.ddirty[c.src], c)
	}
	c.dseq++
	c.deliv = append(c.deliv, xmsg{at: at, seq: c.dseq, fn: fn})
}

// Credit posts a flow-control credit back to the sending engine, at the
// receiver's current virtual time.
func (c *Channel) Credit(fn func()) {
	if len(c.cred) == 0 {
		c.g.cdirty[c.dst] = append(c.g.cdirty[c.dst], c)
	}
	c.cseq++
	c.cred = append(c.cred, xmsg{at: c.dstEng.now, seq: c.cseq, fn: fn})
}

// groupWorker is one partition's persistent runner goroutine: the
// coordinator sends a window deadline on start and receives the window's
// recovered panic (or nil) on done.
type groupWorker struct {
	start chan Time
	done  chan *procPanic
}

// injItem is one message flattened for barrier injection, carrying its
// deterministic sort key (at, tie, seq).
type injItem struct {
	at   Time
	tie  int // 2*channel index, +1 for credits
	seq  int64
	ch   *Channel
	cred bool
	fn   func()
}

// injCmp orders barrier injections by (at, tie, seq).
func injCmp(x, y injItem) int {
	if c := cmp.Compare(x.at, y.at); c != 0 {
		return c
	}
	if c := cmp.Compare(x.tie, y.tie); c != 0 {
		return c
	}
	return cmp.Compare(x.seq, y.seq)
}

// groupSampler is a Sampler driven at barrier epochs instead of by engine
// callbacks, so the timeline observes one coherent virtual time across
// partitions.
type groupSampler struct {
	s    *Sampler
	fn   func() float64
	next Time
}

// Group runs a set of Engines as one partitioned simulation. Build each
// partition's components on its own engine, Connect a Channel per cut-link
// direction, then Run. All Group methods must be called from a single
// goroutine (the coordinator); during windows the engines run concurrently
// on worker goroutines.
type Group struct {
	engines  []*Engine
	channels []*Channel
	workers  []groupWorker

	// Per-rank barrier scratch, reused across rounds.
	next    []Time // next pending event (Forever = drained)
	reach   []Time // earliest possible future action, after relaxation
	horizon []Time // earliest possible inbound message
	active  []bool // ranks running in the current round
	dl      []Time // per-rank window deadline for the current round
	inj     []injItem

	// Barriers scan only what changed, not every channel. ddirty[r] lists
	// channels rank r posted deliveries on this window (written only by r's
	// goroutine, drained by the coordinator — the start/done handoffs order
	// the accesses), cdirty[r] likewise for credits posted by receiver rank
	// r. outst lists channels with outstanding deliveries (coordinator only,
	// compacted lazily); pairLA[s][d] is the min lookahead over all s→d
	// channels, the only per-channel figure horizon relaxation needs.
	ddirty [][]*Channel
	cdirty [][]*Channel
	outst  []*Channel
	pairLA [][]Time
	// pairCredLA[s][d] is the min lookahead+creditLA over all s→d channels:
	// the earliest a credit from a delivery s has *not yet sent* can come
	// back. Without this horizon term a partition with no inbound delivery
	// channel would run unboundedly ahead of its own future credit returns.
	pairCredLA [][]Time

	samplers []*groupSampler

	started  bool
	shutdown bool

	rounds     int64
	microSteps int64
	evTotal    int64
	evCrit     int64
	ev0        []int64 // per-rank Events() at window start (dispatch scratch)
}

// NewGroup creates n fresh engines joined into a partition group.
func NewGroup(n int) *Group {
	if n < 1 {
		panic("sim: group needs at least one partition")
	}
	g := &Group{
		engines: make([]*Engine, n),
		workers: make([]groupWorker, n),
		next:    make([]Time, n),
		reach:   make([]Time, n),
		horizon: make([]Time, n),
		active:  make([]bool, n),
		dl:      make([]Time, n),
		ddirty:  make([][]*Channel, n),
		cdirty:  make([][]*Channel, n),
		pairLA:  make([][]Time, n),
		ev0:     make([]int64, n),
	}
	g.pairCredLA = make([][]Time, n)
	for i := range g.engines {
		g.engines[i] = NewEngine()
		g.workers[i] = groupWorker{start: make(chan Time), done: make(chan *procPanic)}
		g.pairLA[i] = make([]Time, n)
		g.pairCredLA[i] = make([]Time, n)
		for j := range g.pairLA[i] {
			g.pairLA[i][j] = Forever
			g.pairCredLA[i][j] = Forever
		}
	}
	return g
}

// Len reports the partition count.
func (g *Group) Len() int { return len(g.engines) }

// Engine returns partition rank i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// Rounds reports how many barrier rounds Run has executed — the partition
// overhead metric benchmarks track.
func (g *Group) Rounds() int64 { return g.rounds }

// MicroSteps reports how many rounds degenerated to single-instant steps
// (cross-partition activity dense enough that no window fit the lookahead).
func (g *Group) MicroSteps() int64 { return g.microSteps }

// EventsTotal reports how many events fired across all partitions, and
// EventsCritical the summed per-round maximum — the event count on the
// critical path. Both are deterministic (a replay of the same workload
// yields the same counts), so EventsTotal/EventsCritical measures the
// workload's available parallelism free of scheduler noise.
func (g *Group) EventsTotal() int64 { return g.evTotal }

// EventsCritical — see EventsTotal.
func (g *Group) EventsCritical() int64 { return g.evCrit }

// Connect registers the channel for one cut-link direction: deliveries run
// on dst's engine, credits return to src's. lookahead must be positive (a
// zero-latency cut admits no conservative window); creditLA may be zero.
func (g *Group) Connect(src, dst int, lookahead, creditLA Time) *Channel {
	if g.started {
		panic("sim: Connect after Group.Run")
	}
	if src == dst {
		panic("sim: cross-partition channel within one partition")
	}
	if lookahead <= 0 {
		panic("sim: cross-partition lookahead must be positive")
	}
	if creditLA < 0 {
		panic("sim: negative credit lookahead")
	}
	c := &Channel{
		g: g, idx: len(g.channels), src: src, dst: dst,
		lookahead: lookahead, creditLA: creditLA,
		srcEng: g.engines[src], dstEng: g.engines[dst],
	}
	g.channels = append(g.channels, c)
	if lookahead < g.pairLA[src][dst] {
		g.pairLA[src][dst] = lookahead
	}
	if cla := satAdd(lookahead, creditLA); cla < g.pairCredLA[src][dst] {
		g.pairCredLA[src][dst] = cla
	}
	return c
}

// StartSampler begins sampling fn at fixed virtual intervals, like
// Engine.StartSampler but synchronized to barrier epochs: every engine is
// held below the next epoch, so each sample observes the whole fabric at one
// coherent instant. fn runs on the coordinator goroutine and may read state
// from any partition.
func (g *Group) StartSampler(interval Time, fn func() float64) *Sampler {
	if interval <= 0 {
		panic("sim: sampler interval must be positive")
	}
	s := &Sampler{interval: interval}
	g.samplers = append(g.samplers, &groupSampler{s: s, fn: fn, next: interval})
	return s
}

// satAdd adds a non-negative delta to a time, saturating at Forever.
func satAdd(a, b Time) Time {
	if a >= Forever-b {
		return Forever
	}
	return a + b
}

// Run executes the partitioned simulation until every engine drains and no
// cross-partition message is pending, and returns the latest engine clock.
// Panics raised inside partition processes re-raise here (lowest rank first
// when several windows fail), matching Engine.Run.
func (g *Group) Run() Time {
	g.startWorkers()
	for {
		g.injectAll()
		T := g.minNext()
		if T == Forever {
			if !g.drainEpoch() {
				break
			}
			continue
		}
		epochCap := g.fireSamplers(T)
		g.rounds++
		g.computeHorizons()
		if !g.runRound(epochCap) {
			g.microStep(T)
		}
	}
	latest := Time(0)
	for _, e := range g.engines {
		if e.now > latest {
			latest = e.now
		}
	}
	return latest
}

// Shutdown unwinds every partition's processes and stops the worker
// goroutines; the group must not be used afterwards.
func (g *Group) Shutdown() {
	if g.shutdown {
		return
	}
	g.shutdown = true
	for i := range g.workers {
		close(g.workers[i].start)
	}
	for _, e := range g.engines {
		e.Shutdown()
	}
}

func (g *Group) startWorkers() {
	if g.started {
		return
	}
	g.started = true
	for i := range g.workers {
		go func(rank int, e *Engine, w groupWorker) {
			for deadline := range w.start {
				w.done <- runWindowRecover(e, rank, deadline)
			}
		}(i, g.engines[i], g.workers[i])
	}
}

// runWindowRecover runs one window, converting a propagated process panic
// into a value the coordinator re-raises on its own goroutine.
func runWindowRecover(e *Engine, rank int, deadline Time) (pp *procPanic) {
	defer func() {
		if r := recover(); r != nil {
			if p, ok := r.(*procPanic); ok {
				pp = p
			} else {
				pp = &procPanic{proc: fmt.Sprintf("partition %d", rank), value: r}
			}
		}
	}()
	e.runWindow(deadline)
	return nil
}

// injectAll drains every channel's buffered messages into their target
// engines in deterministic (time, channel, sequence) order, maintaining
// per-channel outstanding-delivery state for the credit lookahead.
func (g *Group) injectAll() {
	g.inj = g.inj[:0]
	for r := range g.ddirty {
		for _, c := range g.ddirty[r] {
			for _, m := range c.deliv {
				g.inj = append(g.inj, injItem{at: m.at, tie: 2 * c.idx, seq: m.seq, ch: c, fn: m.fn})
			}
			c.deliv = c.deliv[:0]
		}
		g.ddirty[r] = g.ddirty[r][:0]
		for _, c := range g.cdirty[r] {
			for _, m := range c.cred {
				g.inj = append(g.inj, injItem{at: m.at, tie: 2*c.idx + 1, seq: m.seq, ch: c, cred: true, fn: m.fn})
			}
			c.cred = c.cred[:0]
		}
		g.cdirty[r] = g.cdirty[r][:0]
	}
	if len(g.inj) == 0 {
		return
	}
	// The key (at, tie, seq) is total — tie is unique per channel direction
	// and seq unique within it — so an unstable sort is already deterministic.
	slices.SortFunc(g.inj, injCmp)
	for i := range g.inj {
		it := &g.inj[i]
		if it.cred {
			// Credits return in delivery order: retire the oldest
			// outstanding delivery on this channel.
			it.ch.outHead++
			if it.ch.outHead == len(it.ch.outstanding) {
				it.ch.outstanding = it.ch.outstanding[:0]
				it.ch.outHead = 0
			}
			it.ch.srcEng.Schedule(it.at, it.fn)
		} else {
			// Deliveries are injected in (at, seq) order per channel, so the
			// outstanding list stays sorted by arrival.
			it.ch.outstanding = append(it.ch.outstanding, it.at)
			if !it.ch.inOutst {
				it.ch.inOutst = true
				g.outst = append(g.outst, it.ch)
			}
			it.ch.dstEng.Schedule(it.at, it.fn)
		}
		it.fn = nil
		it.ch = nil
	}
}

// minNext refreshes per-rank next-event times and returns the global minimum
// (Forever when every engine has drained).
func (g *Group) minNext() Time {
	T := Forever
	for i, e := range g.engines {
		if at, ok := e.nextEventTime(); ok {
			g.next[i] = at
			if at < T {
				T = at
			}
		} else {
			g.next[i] = Forever
		}
	}
	return T
}

// fireSamplers emits every sample epoch <= T — at an epoch, all events
// before it have executed on every partition and none at or after it have,
// so the sample is exact — and returns the next epoch (Forever when no
// sampler is live), which caps this round's window deadlines.
func (g *Group) fireSamplers(T Time) Time {
	if len(g.samplers) == 0 {
		return Forever
	}
	for {
		epoch := Forever
		for _, gs := range g.samplers {
			if !gs.s.stop && gs.next < epoch {
				epoch = gs.next
			}
		}
		if epoch > T {
			return epoch
		}
		for _, gs := range g.samplers {
			if gs.s.stop || gs.next != epoch {
				continue
			}
			v := gs.fn()
			// Like the serial sampler, Stop inside fn ends the timeline
			// *after* the current sample.
			gs.s.X = append(gs.s.X, epoch.Seconds())
			gs.s.Y = append(gs.s.Y, v)
			if gs.s.stop {
				continue
			}
			// Read the interval after fn: Decimate doubles it mid-flight.
			gs.next = satAdd(epoch, gs.s.interval)
		}
	}
}

// drainEpoch keeps live samplers' timelines going after every engine has
// drained, mirroring the serial sampler whose armed tick holds the event
// queue open until Stop: the earliest pending epoch fires with all engine clocks
// advanced to it, so Run's return value and the timeline length match the
// serial run's. Reports false when no live sampler remains — the true end of
// the simulation.
func (g *Group) drainEpoch() bool {
	epoch := Forever
	for _, gs := range g.samplers {
		if !gs.s.stop && gs.next < epoch {
			epoch = gs.next
		}
	}
	if epoch == Forever {
		return false
	}
	for _, e := range g.engines {
		if e.now < epoch {
			e.now = epoch
		}
	}
	g.fireSamplers(epoch)
	return true
}

// computeHorizons bounds, per partition, the earliest message any other
// partition can still send it. reach[r] is first relaxed to a lower bound on
// r's earliest possible future action — its own next event, or the earliest
// message a chain of other partitions could wake it with (Bellman–Ford over
// the channel graph; stable in at most n passes since lookaheads are
// positive). horizon[i] is then the tightest inbound bound: deliveries on a
// channel can arrive no earlier than the sender's reach plus the wire
// propagation, and credits no earlier than the oldest outstanding delivery
// plus the receiver's pipeline latency — and in no case before the receiver
// acts at all.
func (g *Group) computeHorizons() {
	// Compact the outstanding-channel list: channels whose last credit came
	// back leave it here, the one coordinator-side sweep point.
	keep := g.outst[:0]
	for _, c := range g.outst {
		if c.outHead < len(c.outstanding) {
			keep = append(keep, c)
		} else {
			c.inOutst = false
		}
	}
	g.outst = keep

	copy(g.reach, g.next)
	for pass := 0; pass <= len(g.engines); pass++ {
		changed := false
		// Delivery relaxation needs only the min lookahead per rank pair,
		// not the channels themselves.
		for s := range g.pairLA {
			for d, la := range g.pairLA[s] {
				if la == Forever {
					continue
				}
				if b := satAdd(g.reach[s], la); b < g.reach[d] {
					g.reach[d] = b
					changed = true
				}
			}
		}
		for _, c := range g.outst {
			b := satAdd(c.outstanding[c.outHead], c.creditLA)
			if g.reach[c.dst] > b {
				b = g.reach[c.dst]
			}
			if b < g.reach[c.src] {
				g.reach[c.src] = b
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i := range g.horizon {
		g.horizon[i] = Forever
	}
	for s := range g.pairLA {
		for d, la := range g.pairLA[s] {
			if la == Forever {
				continue
			}
			if b := satAdd(g.reach[s], la); b < g.horizon[d] {
				g.horizon[d] = b
			}
			// Credits from deliveries s has *not yet sent* bound s too: a
			// future send at reach[s] or later can echo a credit back no
			// earlier than the round trip's two lookaheads. Without this
			// term a partition with no inbound delivery channel would run
			// unboundedly ahead of its own credit returns.
			if b := satAdd(g.reach[s], g.pairCredLA[s][d]); b < g.horizon[s] {
				g.horizon[s] = b
			}
		}
	}
	for _, c := range g.outst {
		b := satAdd(c.outstanding[c.outHead], c.creditLA)
		if g.reach[c.dst] > b {
			b = g.reach[c.dst]
		}
		if b < g.horizon[c.src] {
			g.horizon[c.src] = b
		}
	}
}

// runRound starts a window on every partition whose next event lies strictly
// inside its horizon (deadline horizon-1, further capped below the next
// sample epoch), waits for all of them, and reports whether any partition
// ran. Partitions run concurrently; the horizon guarantees no message can
// arrive inside a window.
func (g *Group) runRound(epochCap Time) bool {
	ran := false
	for i := range g.engines {
		deadline := g.horizon[i] - 1
		if epochCap-1 < deadline {
			deadline = epochCap - 1
		}
		g.dl[i] = deadline
		g.active[i] = g.next[i] <= deadline
		ran = ran || g.active[i]
	}
	if !ran {
		return false
	}
	g.dispatch()
	return true
}

// microStep resolves a round where no window fit: every partition holding an
// event at the global minimum T settles that single instant. Messages
// produced at T inject at T — never into any engine's past, because an
// engine that previously ran ahead of T did so only under a horizon proving
// no such message could exist.
func (g *Group) microStep(T Time) {
	g.microSteps++
	for i := range g.engines {
		g.dl[i] = T
		g.active[i] = g.next[i] == T
	}
	g.dispatch()
}

// dispatch runs every active rank's window at its g.dl deadline concurrently
// on the workers, then re-raises the lowest-ranked window panic on the
// coordinator goroutine.
func (g *Group) dispatch() {
	// Events() is read on the coordinator while each engine is quiescent:
	// before its start send and after its done receive, both of which order
	// memory with the worker goroutine.
	for i := range g.engines {
		if g.active[i] {
			g.ev0[i] = g.engines[i].Events()
			g.workers[i].start <- g.dl[i]
		}
	}
	var fatal *procPanic
	var evCrit int64
	for i := range g.engines {
		if !g.active[i] {
			continue
		}
		pp := <-g.workers[i].done
		dev := g.engines[i].Events() - g.ev0[i]
		g.evTotal += dev
		evCrit = max(evCrit, dev)
		if pp != nil && fatal == nil {
			fatal = pp
		}
	}
	g.evCrit += evCrit
	if fatal != nil {
		panic(fatal)
	}
}
