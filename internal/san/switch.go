package san

import (
	"fmt"
	"sync/atomic"

	"activesan/internal/sim"
)

// strictRoutes, when set, turns the first unroutable-packet drop into a
// panic so misrouted configurations fail fast instead of silently losing
// traffic (activesim's -strict-routes flag). Atomic because parallel sweeps
// run engines on several goroutines.
var strictRoutes atomic.Bool

// SetStrictRoutes toggles fail-fast behavior on unroutable packets.
func SetStrictRoutes(v bool) { strictRoutes.Store(v) }

// StrictRoutes reports whether unroutable packets fail fast; the flight
// recorder uses it to decide whether a no_route_drop event is a trigger.
func StrictRoutes() bool { return strictRoutes.Load() }

// SwitchConfig sets the base switch parameters.
type SwitchConfig struct {
	// Ports is the number of external ports.
	Ports int
	// RoutingLatency is the per-packet routing decision time (paper: 100 ns,
	// "similar to current InfiniBand switches").
	RoutingLatency sim.Time
	// PoolPackets sizes the central output queue's shared buffer pool.
	PoolPackets int
	// Link configures every attached link.
	Link LinkConfig
}

// DefaultSwitchConfig returns the paper's switch: 1 GB/s bidirectional
// ports, 100 ns routing latency, virtual cut-through.
func DefaultSwitchConfig(ports int) SwitchConfig {
	return SwitchConfig{
		Ports:          ports,
		RoutingLatency: 100 * sim.Nanosecond,
		PoolPackets:    64,
		Link:           DefaultLinkConfig(),
	}
}

// LocalSink receives packets whose destination is the switch itself. The
// base switch has none; the active switch installs its dispatch unit here.
// Deliver runs in input port port's pipeline, which holds the packet's
// credit until the sink calls done — exactly the backpressure the paper's
// credit scheme provides. The sink must call done once per delivery, inline
// when nothing makes it wait, with a reply for the switch to source as its
// own injection before the port moves on (the active switch's crash
// notice), or nil.
type LocalSink interface {
	Deliver(port int, pkt *Packet, fillRate float64, done func(reply *Packet))
}

// Port is one external attachment: In carries packets from the device into
// the switch, Out carries packets to the device.
type Port struct {
	In  *Link
	Out *Link
}

// SwitchStats counts switch activity.
type SwitchStats struct {
	Routed  int64 // packets forwarded between ports
	Local   int64 // packets consumed by the local sink
	Dropped int64 // packets dropped (no route, or local with no sink)
	// NoRouteDrops is the subset of Dropped with no routing-table entry —
	// a configuration bug unless a fault plan removed the route.
	NoRouteDrops int64
	// Rerouted counts packets sent via a backup route because the primary
	// port's link was down.
	Rerouted int64
	// CorruptDrops counts corrupt arrivals discarded at the input CRC
	// check (only fault injection produces corrupt packets).
	CorruptDrops int64
	// MaxQueueDepth is the deepest any output queue got; MinPoolFree is
	// the central pool's low-water mark — the congestion signature of the
	// central-output-queue design.
	MaxQueueDepth int
	MinPoolFree   int
}

// Switch is the conventional central-output-queue switch. Each input port
// is a routing pipeline and each output port a transmit pipeline, both
// driven by events; a shared buffer pool provides the central queue.
type Switch struct {
	eng    *sim.Engine
	id     NodeID
	name   string
	cfg    SwitchConfig
	ports  []Port
	in     []*inPort
	routes routeTable
	pool   *sim.Semaphore
	outQ   []*sim.Queue[*Packet]
	local  LocalSink
	stats  SwitchStats

	// arb is the settle-phase crossbar arbiter: every same-instant arrival
	// joins it after the routing step and is granted in input-port-index
	// order at the end of the instant, so contention for the central pool,
	// the output queues, and the local sink resolves identically whatever
	// order the arrival events were inserted in — the property partitioned
	// byte-identity rests on (see DESIGN.md, "Settle-phase arbitration").
	arb *sim.Arbiter

	started bool
}

// NewSwitch builds a switch with the given identity. Attach links with
// AttachPort, set routes with SetRoute, then Start it.
func NewSwitch(eng *sim.Engine, id NodeID, name string, cfg SwitchConfig) *Switch {
	if cfg.Ports <= 0 {
		panic("san: switch needs ports")
	}
	if cfg.Ports > maxPorts {
		panic(fmt.Sprintf("san: %d ports exceed the %d a switch supports", cfg.Ports, maxPorts))
	}
	s := &Switch{
		eng:   eng,
		id:    id,
		name:  name,
		cfg:   cfg,
		ports: make([]Port, cfg.Ports),
		in:    make([]*inPort, cfg.Ports),
		pool:  sim.NewSemaphore(cfg.PoolPackets),
		outQ:  make([]*sim.Queue[*Packet], cfg.Ports),
		arb:   sim.NewArbiter(eng),
	}
	for i := range s.outQ {
		s.outQ[i] = sim.NewQueue[*Packet]()
	}
	s.stats.MinPoolFree = cfg.PoolPackets
	return s
}

// ID returns the switch's node ID.
func (s *Switch) ID() NodeID { return s.id }

// Name returns the switch's debug name.
func (s *Switch) Name() string { return s.name }

// Engine returns the engine the switch runs on — its partition's engine in
// a partitioned simulation.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// Config returns the switch configuration.
func (s *Switch) Config() SwitchConfig { return s.cfg }

// Stats returns a copy of the counters.
func (s *Switch) Stats() SwitchStats { return s.stats }

// QueuedPackets reports the packets currently sitting in output queues —
// the instantaneous central-queue occupancy, for timeline sampling.
func (s *Switch) QueuedPackets() int {
	n := 0
	for _, q := range s.outQ {
		n += q.Len()
	}
	return n
}

// PoolFree reports the buffer-pool slots currently free.
func (s *Switch) PoolFree() int { return s.pool.Available() }

// Port returns port i's links.
func (s *Switch) Port(i int) Port { return s.ports[i] }

// AttachPort wires port i: in carries traffic from the device, out carries
// traffic to it. Both must be created by the caller (cluster wiring owns
// link naming).
func (s *Switch) AttachPort(i int, in, out *Link) {
	if s.started {
		panic("san: AttachPort after Start")
	}
	if s.ports[i].In != nil {
		panic(fmt.Sprintf("san: %s port %d already attached", s.name, i))
	}
	s.ports[i] = Port{In: in, Out: out}
	if in != nil {
		s.in[i] = s.newInPort(i, in)
	}
}

// SetRoute directs packets for dst out of port. Routes may be updated before
// Start only.
func (s *Switch) SetRoute(dst NodeID, port int) {
	s.checkRoute("SetRoute", port)
	s.routes.slot(dst).primary = uint16(port + 1)
}

// SetBackupRoute directs packets for dst out of port when the primary
// route's link is down. Like SetRoute, backup routes are fixed before Start.
func (s *Switch) SetBackupRoute(dst NodeID, port int) {
	s.checkRoute("SetBackupRoute", port)
	s.routes.slot(dst).backup = uint16(port + 1)
}

// ReserveRoutes sizes the routing table for the n destination ids from
// base as one dense run, so the SetRoute calls that fill it are index
// stores. It is an optimisation only: routes for ids outside any reserved
// range work the same way.
func (s *Switch) ReserveRoutes(base NodeID, n int) {
	if s.started {
		panic("san: ReserveRoutes after Start")
	}
	if n > 0 {
		s.routes.reserve(base, n)
	}
}

// checkRoute rejects a route write after Start or to a port out of range.
func (s *Switch) checkRoute(op string, port int) {
	if s.started {
		panic("san: " + op + " after Start")
	}
	if port < 0 || port >= s.cfg.Ports {
		panic(fmt.Sprintf("san: %s to port %d of %d-port switch", op, port, s.cfg.Ports))
	}
}

// Route returns the output port for dst, or -1 if unroutable.
func (s *Switch) Route(dst NodeID) int { return int(s.routes.get(dst).primary) - 1 }

// BackupRoute returns the backup output port for dst, or -1 if none.
func (s *Switch) BackupRoute(dst NodeID) int { return int(s.routes.get(dst).backup) - 1 }

// portUp reports whether port i can currently transmit: an unattached Out
// link counts as up so local-sink-only ports keep working.
func (s *Switch) portUp(i int) bool {
	out := s.ports[i].Out
	return out == nil || out.Up()
}

// pickRoute selects the output port for dst, falling back to the backup
// route when the primary port's link is down. With both routes down it
// returns the primary anyway — the packet is then lost on the dead link,
// where loss accounting and retransmission live.
func (s *Switch) pickRoute(dst NodeID) (port int, rerouted bool) {
	e := s.routes.get(dst)
	p, b := int(e.primary)-1, int(e.backup)-1
	if p >= 0 && s.portUp(p) {
		return p, false
	}
	if b >= 0 && s.portUp(b) {
		return b, p >= 0 // a reroute only if a primary existed and was down
	}
	return p, false // -1 when there is no primary
}

// noteNoRoute accounts an unroutable packet and, under -strict-routes,
// fails fast with enough context to find the missing table entry.
func (s *Switch) noteNoRoute(pkt *Packet) {
	s.stats.Dropped++
	s.stats.NoRouteDrops++
	if s.eng.Tracing() {
		s.eng.Emit("fault", "no_route_drop", s.name,
			fmt.Sprintf("%s pkt src=%d dst=%d flow=%d seq=%d", pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq))
	}
	if strictRoutes.Load() {
		panic(fmt.Errorf("san: %s has no route for %s packet src=%d dst=%d flow=%d seq=%d (-strict-routes)",
			s.name, pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq))
	}
}

// SetLocalSink installs the handler for packets addressed to the switch
// itself (the active extension).
func (s *Switch) SetLocalSink(sink LocalSink) {
	if s.started {
		panic("san: SetLocalSink after Start")
	}
	s.local = sink
}

// Start wires the per-port pipelines. Unattached ports are skipped.
func (s *Switch) Start() {
	if s.started {
		panic("san: double Start")
	}
	s.started = true
	for i, pt := range s.ports {
		if pt.In != nil {
			s.in[i].serve()
		}
		if pt.Out != nil {
			s.startOutput(i, pt.Out)
		}
	}
}

// inPort is one input port's routing pipeline. It serves one packet at a
// time — later arrivals wait in rx, the port's input buffer — through the
// routing latency and crossbar arbitration to the local sink (which may
// make it wait for data-buffer admission) or, holding a central-queue
// slot, to its output queue.
type inPort struct {
	s   *Switch
	i   int
	in  *Link
	rx  *sim.Queue[*Packet]
	pkt *Packet
	out int
	// reply marks pkt as a local sink's reply, injected as pseudo-port N.
	reply bool
	// Continuations, bound once.
	granted, pooled sim.Waiter
	routed          func()
	replied         func(*Packet)
}

// newInPort makes port i's pipeline the receiver of in; arrivals buffer in
// rx until Start begins serving them.
func (s *Switch) newInPort(i int, in *Link) *inPort {
	ip := &inPort{s: s, i: i, in: in, rx: sim.NewQueue[*Packet]()}
	ip.granted = s.eng.Waiter(ip.dispose)
	ip.pooled = s.eng.Waiter(ip.enqueue)
	ip.routed = ip.arbitrate
	ip.replied = ip.inject
	in.SetReceiver(ip.arrive)
	return ip
}

// arrive buffers a packet whose head has reached the port and, when the
// pipeline is idle, starts routing it at once.
func (ip *inPort) arrive(pkt *Packet) {
	ip.rx.Put(pkt)
	if ip.pkt == nil && ip.s.started {
		ip.serve()
	}
}

// serve takes the next buffered packet into the routing step; with none
// buffered the port idles until arrive starts it again.
func (ip *inPort) serve() {
	pkt, ok := ip.rx.TryGet()
	if !ok {
		return
	}
	ip.pkt = pkt
	now := ip.s.eng.Now()
	if st := pkt.Stamp; st != nil {
		st.Open(HopRoute, ip.s.name, now)
	}
	ip.s.eng.Schedule(now+ip.s.cfg.RoutingLatency, ip.routed)
}

// arbitrate runs once the routing latency has elapsed.
func (ip *inPort) arbitrate() {
	s, pkt := ip.s, ip.pkt
	if s.eng.Tracing() {
		s.eng.Emit("packet", "recv", s.name,
			fmt.Sprintf("in%d %s pkt src=%d dst=%d flow=%d seq=%d size=%d",
				ip.i, pkt.Hdr.Type, pkt.Hdr.Src, pkt.Hdr.Dst, pkt.Hdr.Flow, pkt.Hdr.Seq, pkt.Size))
	}
	if pkt.Corrupt {
		// Link-level CRC check: damaged packets stop here and rely on
		// end-to-end retransmission. Drops never contend, so they skip
		// arbitration.
		s.stats.CorruptDrops++
		ip.finish()
		return
	}
	// Settle-phase crossbar arbitration: every packet that finished its
	// routing step at this instant — on any input port, in any event order
	// — is admitted in input-port-index order at the end of the instant.
	// Routing itself happens after the grant, so a same-instant topology
	// change is observed identically by the whole burst.
	s.arb.Enter(ip.granted, ip.i)
}

// dispose hands the granted packet to the local sink, or routes it and
// takes a central-queue slot.
func (ip *inPort) dispose() {
	s, pkt := ip.s, ip.pkt
	switch {
	case ip.reply:
		ip.reply = false
		out, err := s.injectRoute(pkt)
		if err != nil {
			ip.finish() // nobody to reply to
			return
		}
		ip.out = out
	case pkt.Hdr.Dst == s.id:
		s.stats.Local++
		if s.local == nil {
			s.stats.Dropped++
			ip.finish()
			return
		}
		if st := pkt.Stamp; st != nil {
			st.Close(s.eng.Now())
		}
		s.local.Deliver(ip.i, pkt, ip.in.FillRate(), ip.replied)
		return
	default:
		out, rerouted := s.pickRoute(pkt.Hdr.Dst)
		if out < 0 {
			s.noteNoRoute(pkt)
			ip.finish()
			return
		}
		if rerouted {
			s.stats.Rerouted++
		}
		ip.out = out
	}
	if s.pool.AcquireOr(ip.pooled) {
		ip.enqueue()
	}
}

// inject ends a local delivery: a reply from the sink arbitrates as the
// switch's own injection, pseudo-port N, like Inject, before the port frees
// the delivered packet's buffer.
func (ip *inPort) inject(reply *Packet) {
	if reply == nil {
		ip.finish()
		return
	}
	ip.pkt, ip.reply = reply, true
	ip.s.arb.Enter(ip.granted, ip.s.cfg.Ports)
}

// enqueue moves the packet, holding its central-queue slot, to the output.
func (ip *inPort) enqueue() {
	if st := ip.pkt.Stamp; st != nil {
		st.Close(ip.s.eng.Now())
	}
	ip.s.enqueue(ip.out, ip.pkt)
	ip.finish()
}

// finish frees the packet's input buffer and moves on to the next.
func (ip *inPort) finish() {
	ip.pkt = nil
	ip.in.ReturnCredit()
	ip.serve()
}

// enqueue puts a packet holding a central-queue slot on output queue out.
func (s *Switch) enqueue(out int, pkt *Packet) {
	s.stats.Routed++
	if st := pkt.Stamp; st != nil {
		st.Open(HopQueue, s.name, s.eng.Now())
	}
	s.outQ[out].Put(pkt)
	s.noteDepth(out)
}

// noteDepth records queue and pool occupancy extremes.
func (s *Switch) noteDepth(out int) {
	if d := s.outQ[out].Len(); d > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = d
	}
	if f := s.pool.Available(); f < s.stats.MinPoolFree {
		s.stats.MinPoolFree = f
	}
}

// outPort is one output port's transmit pipeline: it drains the output
// queue onto the link and frees each packet's central-queue slot once the
// packet is on the wire.
type outPort struct {
	s    *Switch
	q    *sim.Queue[*Packet]
	tx   *Sender
	next sim.Waiter
}

func (s *Switch) startOutput(i int, out *Link) {
	op := &outPort{s: s, q: s.outQ[i]}
	op.next = s.eng.Waiter(op.serve)
	op.tx = out.NewSender(op.sent)
	op.serve()
}

// serve transmits the next queued packet, or waits for one.
func (op *outPort) serve() {
	pkt, ok := op.q.GetOr(op.next)
	if !ok {
		return
	}
	if st := pkt.Stamp; st != nil {
		st.Close(op.s.eng.Now())
	}
	op.tx.Send(pkt)
}

func (op *outPort) sent() {
	op.s.pool.Release()
	op.serve()
}

// Inject lets the switch itself source a packet toward dst (the active
// switch's send unit uses this: the crossbar is logically (N+1)xN). It
// arbitrates as the crossbar's extra input — pseudo-port N, behind every
// external port of the same instant — then blocks for a central-queue slot
// and enqueues on the proper output.
func (s *Switch) Inject(p *sim.Proc, pkt *Packet) error {
	s.arb.Join(p, s.cfg.Ports)
	out, err := s.injectRoute(pkt)
	if err != nil {
		return err
	}
	s.pool.Acquire(p)
	s.enqueue(out, pkt)
	return nil
}

// injectRoute picks an injected packet's output port.
func (s *Switch) injectRoute(pkt *Packet) (int, error) {
	out, rerouted := s.pickRoute(pkt.Hdr.Dst)
	if out < 0 {
		return out, fmt.Errorf("san: %s cannot route injected packet to node %d", s.name, pkt.Hdr.Dst)
	}
	if rerouted {
		s.stats.Rerouted++
	}
	return out, nil
}
